package bcnphase_test

import (
	"context"
	"math"
	"testing"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/experiments"
	"bcnphase/internal/invariant"
	"bcnphase/internal/netsim"
	"bcnphase/internal/ode"
	"bcnphase/internal/workload"

	"bcnphase/internal/bcn"
)

// --- One benchmark per paper artifact (DESIGN.md experiment index). ---
// Each regenerates the corresponding figure/result end to end; use
// `go test -bench=Fig -benchmem` to time the whole evaluation pipeline.

func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Charts) == 0 {
			b.Fatal("no charts")
		}
	}
}

// BenchmarkFig3Taxonomy regenerates the trajectory taxonomy of Fig. 3.
func BenchmarkFig3Taxonomy(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4Spiral regenerates the spiral trajectories of Fig. 4.
func BenchmarkFig4Spiral(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkFig5Node regenerates the node trajectories of Fig. 5.
func BenchmarkFig5Node(b *testing.B) { benchExperiment(b, experiments.Fig5) }

// BenchmarkFig6Case1 regenerates the Case 1 portrait and time series.
func BenchmarkFig6Case1(b *testing.B) { benchExperiment(b, experiments.Fig6) }

// BenchmarkFig7LimitCycle regenerates the limit-cycle study of Fig. 7.
func BenchmarkFig7LimitCycle(b *testing.B) { benchExperiment(b, experiments.Fig7) }

// BenchmarkFig8Case2 regenerates the Case 2 figure.
func BenchmarkFig8Case2(b *testing.B) { benchExperiment(b, experiments.Fig8) }

// BenchmarkFig9Case3 regenerates the Case 3 figure.
func BenchmarkFig9Case3(b *testing.B) { benchExperiment(b, experiments.Fig9) }

// BenchmarkFig10Case4 regenerates the Case 4 figure.
func BenchmarkFig10Case4(b *testing.B) { benchExperiment(b, experiments.Fig10) }

// BenchmarkTheorem1Example regenerates the worked buffer-sizing example.
func BenchmarkTheorem1Example(b *testing.B) { benchExperiment(b, experiments.Theorem1Example) }

// BenchmarkFluidVsPacket regenerates the model-validation experiment.
func BenchmarkFluidVsPacket(b *testing.B) { benchExperiment(b, experiments.FluidVsPacket) }

// BenchmarkStabilityMap regenerates the (Gi, Gd) stability-region sweep.
func BenchmarkStabilityMap(b *testing.B) { benchExperiment(b, experiments.StabilityMap) }

// BenchmarkTransientSweep regenerates the w/pm transient ablation.
func BenchmarkTransientSweep(b *testing.B) { benchExperiment(b, experiments.TransientSweep) }

// --- Micro-benchmarks of the load-bearing primitives. ---

// BenchmarkSolveStitched times one full stitched stability analysis from
// the canonical start (the operation behind every sweep grid point).
func BenchmarkSolveStitched(b *testing.B) {
	p := core.FigureExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := core.Solve(p, core.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Outcome.StronglyStable() {
			b.Fatal("unexpected outcome")
		}
	}
}

// BenchmarkTheorem1Bound times the closed-form criterion.
func BenchmarkTheorem1Bound(b *testing.B) {
	p := core.PaperExample()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += core.Theorem1Bound(p)
	}
	_ = sum
}

// BenchmarkArcEval times closed-form arc evaluation.
func BenchmarkArcEval(b *testing.B) {
	p := core.FigureExample()
	lin := p.RegionLinear(core.Increase)
	arc, err := core.NewArc(lin.M, lin.N, p.K(), -p.Q0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		x, y := arc.At(float64(i%1000) * 1e-6)
		sum += x + y
	}
	_ = sum
}

// BenchmarkDormandPrince times adaptive integration of the nonlinear
// fluid model over one oscillation.
func BenchmarkDormandPrince(b *testing.B) {
	p := core.FigureExample()
	rhs := p.FluidRHS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := ode.DormandPrince(rhs, 0, []float64{-p.Q0, 0}, 2.3e-3, ode.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimSecond times simulating 10 ms of the 10-source dumbbell
// (events/op indicates simulator throughput).
func BenchmarkNetsimSecond(b *testing.B) {
	cfg := netsim.Config{
		N: 10, Capacity: 1e9, LineRate: 1e9, FrameBits: 12000,
		BufferBits: 4e6, PropDelay: netsim.FromSeconds(1e-6),
		InitialRate: 2e8, BCN: true,
		Q0: 5e5, W: 2, Pm: 0.2, Ru: 8e6, Gi: 0.05, Gd: 1.0 / 128,
	}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		net, err := netsim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Run(0.01)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	reportEvents(b, events)
}

// reportEvents adds the event core's figures to a simulator benchmark:
// events per run and wall time per processed event (New included), so
// the event loop is tracked per event and not only per run.
func reportEvents(b *testing.B, events uint64) {
	b.Helper()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// BenchmarkIncast16 times the 16-server incast scenario.
func BenchmarkIncast16(b *testing.B) {
	cfg, err := workload.Incast(16, 1e9, 2e6, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		net, err := netsim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Run(0.01)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	reportEvents(b, events)
}

// BenchmarkMessageRoundTrip times BCN message encode+decode.
func BenchmarkMessageRoundTrip(b *testing.B) {
	m := &bcn.Message{
		DA: bcn.MAC{2, 0, 0, 0, 0, 1}, SA: bcn.MAC{2, 0, 0, 0, 0, 2},
		CPID: 7, Sigma: -1.5e5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := m.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var rx bcn.Message
		if err := rx.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstRoundExtrema times the closed-form overshoot computation.
func BenchmarkFirstRoundExtrema(b *testing.B) {
	p := core.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FirstRoundExtrema(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQCNComparison regenerates the BCN-vs-QCN extension study.
func BenchmarkQCNComparison(b *testing.B) { benchExperiment(b, experiments.QCNComparison) }

// BenchmarkCongestionSpreading regenerates the two-switch HOL-blocking
// study.
func BenchmarkCongestionSpreading(b *testing.B) { benchExperiment(b, experiments.CongestionSpreading) }

// BenchmarkMultihopPause times the two-switch PAUSE scenario.
func BenchmarkMultihopPause(b *testing.B) {
	cfg := netsim.MultihopConfig{
		HotSources: 4, HotRate: 4e8, VictimRate: 2e8, LineRate: 1e9,
		LinkEX: 2e9, PortA: 1e9, PortB: 1e9, FrameBits: 12000,
		BufEdge: 1e6, BufA: 2e6, PropDelay: netsim.FromSeconds(1e-6),
		Pause: true, PauseDuration: netsim.FromSeconds(50e-6),
	}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		net, err := netsim.NewMultihop(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Run(0.01)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	reportEvents(b, events)
}

// BenchmarkFairness regenerates the fairness-vs-sampling study.
func BenchmarkFairness(b *testing.B) { benchExperiment(b, experiments.Fairness) }

// BenchmarkDelaySensitivity regenerates the delay-sensitivity study.
func BenchmarkDelaySensitivity(b *testing.B) { benchExperiment(b, experiments.DelaySensitivity) }

// BenchmarkPaperScale regenerates the packet-level Theorem 1 replay.
func BenchmarkPaperScale(b *testing.B) { benchExperiment(b, experiments.PaperScale) }

// BenchmarkFaultTolerance regenerates the feedback-degradation study.
func BenchmarkFaultTolerance(b *testing.B) { benchExperiment(b, experiments.FaultTolerance) }

// --- Analytic sweep engine: the paper-scale gain grid through the ---
// --- canonical row evaluator, unchecked and invariant-checked.     ---

// benchSweepEngine times cluster.GainGrid.EvalBatch — the row pipeline
// behind bcnsweep, serve sweep jobs, and cluster shards — over a
// 16×16 (Gi, Gd) grid under an invariant policy and reports throughput
// as points/s, the gauge BENCH_<n>.json trajectory comparisons gate on.
func benchSweepEngine(b *testing.B, invariants string) {
	b.Helper()
	g := cluster.GainGrid{
		BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1,
		Steps: 16, Invariants: invariants,
	}
	pts := g.Points()
	rows := make([]cluster.Row, len(pts))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.EvalBatch(ctx, pts, rows, cluster.EvalMetrics{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepAnalytic is the sampling-free closed-form path
// (default engine, invariants off).
func BenchmarkSweepAnalytic(b *testing.B) { benchSweepEngine(b, "") }

// BenchmarkSweepRecord is the same grid under the record policy: the
// invariant guard runs at every exact knot, plus each arc's rate
// minimum.
func BenchmarkSweepRecord(b *testing.B) { benchSweepEngine(b, "record") }

// BenchmarkSweepRK45 solves the same grid by pure numerical
// integration (the analytic engine's fallback integrator), the
// RK45-only baseline of the ISSUE #10 ≥5× acceptance gate.
func BenchmarkSweepRK45(b *testing.B) {
	g := cluster.GainGrid{
		BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 16,
	}
	base := g.Base()
	gridPts := g.Points()
	params := make([]core.Params, len(gridPts))
	for i, pt := range gridPts {
		p := base
		p.Gi, p.Gd = pt.Gi, pt.Gd
		params[i] = p
	}
	batch := analytic.NewBatch(len(params))
	opts := analytic.Options{Mode: analytic.ModeOff}
	batch.Solve(params, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Solve(params, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(params))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// --- Invariant-checker overhead on the X1 scenario. ---

// x1Config is the X1 workload of DESIGN.md's experiment index (the
// 10-source 2× overload dumbbell behind the 802.1Qau comparison) with
// the requested invariant policy attached.
func x1Config(policy invariant.Policy) netsim.Config {
	return netsim.Config{
		N: 10, Capacity: 1e9, LineRate: 1e9, FrameBits: 12000,
		BufferBits: 4e6, PropDelay: netsim.FromSeconds(1e-6),
		InitialRate: 2e8, BCN: true,
		Q0: 5e5, W: 2, Pm: 0.2, Ru: 8e6, Gi: 0.05, Gd: 1.0 / 128,
		Invariants: policy,
	}
}

func runX1(policy invariant.Policy, simSeconds float64) error {
	net, err := netsim.New(x1Config(policy))
	if err != nil {
		return err
	}
	_, err = net.Run(simSeconds)
	return err
}

func benchX1(b *testing.B, policy invariant.Policy) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := runX1(policy, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX1InvariantsOff is the guard-free baseline for the overhead
// comparison.
func BenchmarkX1InvariantsOff(b *testing.B) { benchX1(b, invariant.Off) }

// BenchmarkX1InvariantsRecord measures the per-event cost of tallying
// violations without aborting.
func BenchmarkX1InvariantsRecord(b *testing.B) { benchX1(b, invariant.Record) }

// BenchmarkX1InvariantsStrict measures the abort-on-violation policy on
// a healthy run (no violations fire; the cost is pure checking).
func BenchmarkX1InvariantsStrict(b *testing.B) { benchX1(b, invariant.Strict) }

// BenchmarkSolveStitchedRecord is BenchmarkSolveStitched with the
// Record-policy guard attached, for the closed-form solver's overhead.
func BenchmarkSolveStitchedRecord(b *testing.B) {
	p := core.FigureExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)})
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Outcome.StronglyStable() {
			b.Fatal("unexpected outcome")
		}
	}
}

// TestRecordInvariantOverhead asserts the Record policy costs < 10%
// wall-clock on the X1 scenario versus guards off. Interleaved
// best-of-N timing suppresses scheduler noise; the run is skipped under
// -short and under the race detector, whose instrumentation dominates
// the signal.
func TestRecordInvariantOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews wall-clock comparison")
	}
	const simSeconds = 0.05
	// Warm up both paths (allocator, code paths) before timing.
	for _, p := range []invariant.Policy{invariant.Off, invariant.Record} {
		if err := runX1(p, simSeconds); err != nil {
			t.Fatal(err)
		}
	}
	time1 := func(policy invariant.Policy) time.Duration {
		start := time.Now()
		if err := runX1(policy, simSeconds); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure := func() (off, rec time.Duration) {
		best := map[invariant.Policy]time.Duration{
			invariant.Off:    time.Duration(math.MaxInt64),
			invariant.Record: time.Duration(math.MaxInt64),
		}
		for i := 0; i < 7; i++ {
			for p := range best {
				if d := time1(p); d < best[p] {
					best[p] = d
				}
			}
		}
		return best[invariant.Off], best[invariant.Record]
	}
	// Concurrent packages in a full `go test ./...` run can steal enough
	// CPU to inflate one side of the comparison, so a single noisy
	// measurement is not a failure: only fail when every attempt agrees.
	const attempts = 3
	var off, rec time.Duration
	for i := 0; i < attempts; i++ {
		off, rec = measure()
		t.Logf("attempt %d: off=%v record=%v overhead=%.2f%%",
			i+1, off, rec, 100*(float64(rec)/float64(off)-1))
		if float64(rec) <= 1.10*float64(off) {
			return
		}
	}
	t.Errorf("Record-mode overhead %.2f%% exceeds 10%% in %d consecutive measurements (off=%v, record=%v)",
		100*(float64(rec)/float64(off)-1), attempts, off, rec)
}
