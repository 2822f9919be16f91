package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/serve"
)

// Every input comes from newRand(seed, stream, index): the same seed
// gives the same inputs, item by item, whatever the timing of the run.
// Streams keep the inputs of different purposes independent.
const (
	streamGrid uint64 = iota + 1
	streamGridOrder
	streamJob
	streamJobMix
	streamNetsim
	streamWarmup
	streamResubmit
)

func newRand(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^stream<<56, index*0x9e3779b97f4a7c15+stream))
}

// pow2 returns base·2^u for u uniform in [lo, hi).
func pow2(r *rand.Rand, base, lo, hi float64) float64 {
	return base * math.Exp2(lo+(hi-lo)*r.Float64())
}

// The critical gains of the figure example, where a region's
// characteristic equation has a repeated root (the paper's case 5). A
// grid whose first Gi (or Gd) is exactly one of these has a whole row
// (or column) of degenerate points, because Points starts each axis at
// its lower bound exactly.
var (
	giCritical = func() float64 {
		p := core.FigureExample()
		return p.AThreshold() / (p.Ru * float64(p.N))
	}()
	gdCritical = core.FigureExample().BThreshold()
)

// Grid classes, in the proportions gridClass deals them: grids around
// bcnsweep's default span (spiral/spiral only), grids that reach past
// the node thresholds, and grids anchored on a critical gain.
const (
	classPaper = iota
	classNode
	classCritical
)

func gridClass(k int) int {
	switch k % 10 {
	case 0, 1, 2, 3, 4:
		return classPaper
	case 5, 6, 7:
		return classNode
	default:
		return classCritical
	}
}

// genGrid draws the k-th gain grid of a seed. Buffers run from tight
// (overflow verdicts) to ample (converged verdicts).
func genGrid(seed int64, k, steps int) cluster.GainGrid {
	r := newRand(seed, streamGrid, uint64(k))
	g := cluster.GainGrid{
		BOverQ0: 1.5 + 10.5*r.Float64(),
		GiLo:    pow2(r, 0.05, -1, 1),
		GiHi:    pow2(r, 12.8, -1, 1),
		GdLo:    pow2(r, 1.0/1024, -1, 1),
		GdHi:    pow2(r, 0.5, -1, 1),
		Steps:   steps,
	}
	switch gridClass(k) {
	case classNode:
		g.GiHi = pow2(r, giCritical, 1, 4)
		g.GdHi = pow2(r, gdCritical, 1, 4)
	case classCritical:
		if k%2 == 0 {
			g.GiLo, g.GiHi = giCritical, pow2(r, giCritical, 1, 6)
		} else {
			g.GdLo, g.GdHi = gdCritical, pow2(r, gdCritical, 1, 6)
		}
	}
	return g
}

// genGrids draws n grids in a seeded order, so each class is spread
// over the list instead of sitting in runs.
func genGrids(seed int64, n, steps int) []cluster.GainGrid {
	out := make([]cluster.GainGrid, n)
	for k := range out {
		out[k] = genGrid(seed, k, steps)
	}
	r := newRand(seed, streamGridOrder, uint64(steps))
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Job kinds of the serve-jobs mix.
const (
	jobDefault  = iota // fresh solve on the default (analytic) engine
	jobRecord          // fresh solve naming "invariants":"record" (core.Solve)
	jobResubmit        // byte-identical resubmit of an earlier fresh job
)

// jobMix deals the 60/15/25 mix exactly in every cycle of 20 jobs; the
// order within a cycle is seeded.
var jobMix = [20]int{
	jobDefault, jobDefault, jobDefault, jobDefault, jobDefault, jobDefault,
	jobDefault, jobDefault, jobDefault, jobDefault, jobDefault, jobDefault,
	jobRecord, jobRecord, jobRecord,
	jobResubmit, jobResubmit, jobResubmit, jobResubmit, jobResubmit,
}

func jobKind(seed int64, i int) int {
	if i < 4 { // nothing to resubmit yet
		return jobDefault
	}
	cycle := jobMix
	r := newRand(seed, streamJobMix, uint64(i/len(cycle)))
	r.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
	return cycle[i%len(cycle)]
}

// genParams draws a valid fluid-model parameter set around the paper's
// worked example.
func genParams(r *rand.Rand) core.Params {
	p := core.PaperExample()
	p.N = 10 + r.IntN(91)
	p.C = []float64{1e9, 10e9, 40e9}[r.IntN(3)]
	p.Gi = pow2(r, core.DefaultGi, -3, 3)
	p.Gd = pow2(r, core.DefaultGd, -3, 3)
	p.Pm = pow2(r, core.DefaultPm, -1, 3)
	p.Q0 = p.C * (100e-6 + 400e-6*r.Float64())
	p.B = p.Q0 * (1.5 + 6.5*r.Float64())
	return p
}

// genSpec draws the f-th fresh solve job of a seed.
func genSpec(seed int64, stream uint64, f int, kind int) serve.Spec {
	r := newRand(seed, stream, uint64(f))
	sp := serve.Spec{Kind: "solve", Solve: &serve.SolveSpec{Params: genParams(r)}}
	if kind == jobRecord {
		sp.Invariants = "record"
	}
	return sp
}

// jobOrigin is the operation whose spec operation i submits: itself
// when fresh, and for a resubmit an earlier fresh job drawn uniformly,
// skipping the last two, which the other client may still have in
// flight.
func jobOrigin(seed int64, i int) int {
	if jobKind(seed, i) != jobResubmit {
		return i
	}
	r := newRand(seed, streamResubmit, uint64(i))
	for {
		if j := r.IntN(i - 2); jobKind(seed, j) != jobResubmit {
			return j
		}
	}
}

// jobSpec is the spec operation i of the serve-jobs sequence submits.
// Like every input it is a function of the seed and the index alone, so
// the benchmark regenerates it instead of keeping it.
func jobSpec(seed int64, i int) serve.Spec {
	o := jobOrigin(seed, i)
	return genSpec(seed, streamJob, o, jobKind(seed, o))
}

// inputDigest renders a workload's inputs (the first n of an unbounded
// sequence) for the determinism self-test.
func inputDigest(name string, seed int64, n int) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	switch name {
	case "sweep-local":
		for _, g := range genGrids(seed, sweepGrids, sweepSteps) {
			enc.Encode(g)
		}
	case "serve-jobs":
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d %d ", jobKind(seed, i), jobOrigin(seed, i))
			enc.Encode(jobSpec(seed, i))
		}
	case "cluster-sweep":
		for i := 0; i < n; i++ {
			g, origin := clusterGrid(seed, i)
			fmt.Fprintf(&b, "%d ", origin)
			enc.Encode(g)
		}
	case "netsim-packet":
		for _, s := range netsimSeeds(seed) {
			fmt.Fprintln(&b, s)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return b.Bytes(), nil
}

// selfTest checks that the workload's inputs are a function of the seed:
// identical for the same seed, different for another.
func selfTest(name string, seed int64) error {
	const n = 64
	a, err := inputDigest(name, seed, n)
	if err != nil {
		return err
	}
	b, err := inputDigest(name, seed, n)
	if err != nil {
		return err
	}
	c, err := inputDigest(name, seed+1, n)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("self-test: seed %d gave two different input lists", seed)
	}
	if bytes.Equal(a, c) {
		return fmt.Errorf("self-test: seeds %d and %d gave the same input list", seed, seed+1)
	}
	return nil
}

// caseCoverage counts the paper's cases over every point of grids.
func caseCoverage(grids []cluster.GainGrid) map[core.CaseKind]int {
	out := make(map[core.CaseKind]int)
	for _, g := range grids {
		for _, p := range gridParams(g) {
			out[p.Case()]++
		}
	}
	return out
}
