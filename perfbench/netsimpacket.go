package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bcnphase/internal/core"
	"bcnphase/internal/netsim"
	"bcnphase/internal/workload"
)

// netsim-packet operations are pairs: one sustained run and one bursty
// run, so each operation carries the same mix of event densities.
const (
	sustainedSeconds = 0.03 // simulated; the first-round queue peak lands at ~5 ms
	burstySeconds    = 0.02
	netsimSeedCount  = 32 // operations cycle through this many seeds, so every run repeats
)

// netsimSeeds are the simulator seeds of a workload seed.
func netsimSeeds(seed int64) []int64 {
	out := make([]int64, netsimSeedCount)
	for k := range out {
		out[k] = int64(newRand(seed, streamNetsim, uint64(k)).Uint64()>>1) | 1
	}
	return out
}

// scenarios returns the sustained and bursty configurations: the paper's
// Theorem 1 example as a dumbbell (N=50, 10 Gbps, buffer 1.05× the
// bound, sources starting at twice their fair share) and a 16-server
// incast on the same link.
func scenarios() ([2]netsim.Config, error) {
	p := core.PaperExample()
	p.B = core.Theorem1Bound(p) * 1.05
	sustained, err := workload.FromParams(p, 2)
	if err != nil {
		return [2]netsim.Config{}, err
	}
	bursty, err := workload.Incast(16, p.C, 2e6, 0.5e-3)
	if err != nil {
		return [2]netsim.Config{}, err
	}
	return [2]netsim.Config{sustained, bursty}, nil
}

var scenarioNames = [2]string{"sustained", "bursty"}
var scenarioSeconds = [2]float64{sustainedSeconds, burstySeconds}

// runCounts are the exact counts of one simulation.
type runCounts struct {
	events, drops, feedback uint64
}

type netsimPacket struct {
	t     *tracer
	cfgs  [2]netsim.Config
	seeds []int64

	mu   sync.Mutex
	runs map[[2]int64][]runCounts // (scenario, seed) → every run's counts
	// traced pass: wall time and heap allocations inside Run
	runTime time.Duration
	allocs  uint64
}

func setupNetsim(e env) (fixture, error) {
	cfgs, err := scenarios()
	if err != nil {
		return nil, err
	}
	n := &netsimPacket{t: e.t, cfgs: cfgs, seeds: netsimSeeds(e.seed), runs: make(map[[2]int64][]runCounts)}
	// Warm-up: one short run of each scenario.
	for sc := range cfgs {
		cfg := cfgs[sc]
		net, err := netsim.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := net.Run(0.002); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return n, nil
}

func (n *netsimPacket) input(i int) (any, error) { return n.seeds[i%len(n.seeds)], nil }

func (n *netsimPacket) op(_ context.Context, i int, in any) (any, error) {
	var out [2]runCounts
	for sc := range n.cfgs {
		c, err := n.simulate(sc, in.(int64), i)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", scenarioNames[sc], err)
		}
		out[sc] = c
	}
	return out, nil
}

func (n *netsimPacket) simulate(sc int, seed int64, op int) (runCounts, error) {
	cfg := n.cfgs[sc]
	cfg.Seed = seed
	sp := n.t.begin("netsim.new", int64(op), 0)
	net, err := netsim.New(cfg)
	sp.end()
	if err != nil {
		return runCounts{}, err
	}
	var a0 uint64
	if n.t != nil {
		a0 = heapAllocs()
	}
	rs := n.t.begin("netsim.run", int64(op), 0)
	res, err := net.Run(scenarioSeconds[sc])
	rs.end()
	if err != nil {
		return runCounts{}, err
	}
	if n.t != nil && op >= 0 {
		n.mu.Lock()
		n.allocs += heapAllocs() - a0
		n.runTime += rs.s.dur()
		n.mu.Unlock()
	}
	return runCounts{events: res.Events, drops: res.DroppedFrames, feedback: res.PosMessages + res.NegMessages}, nil
}

func (n *netsimPacket) keep(i int, in, out any) {
	pair := out.([2]runCounts)
	n.mu.Lock()
	for sc := range pair {
		key := [2]int64{int64(sc), in.(int64)}
		n.runs[key] = append(n.runs[key], pair[sc])
	}
	n.mu.Unlock()
}

// check requires every run of one (scenario, seed) to repeat the same
// event and drop counts, rerunning any configuration the timed phase
// ran only once, and the sustained scenario to drop nothing.
func (n *netsimPacket) check() (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	wrong := 0
	var first error
	fail := func(err error) {
		wrong++
		if first == nil {
			first = err
		}
	}
	for key, runs := range n.runs {
		sc, seed := int(key[0]), key[1]
		if len(runs) == 1 {
			n.mu.Unlock()
			again, err := n.simulate(sc, seed, -1)
			n.mu.Lock()
			if err != nil {
				return wrong + 1, err
			}
			runs = append(runs, again)
		}
		for _, r := range runs[1:] {
			if r.events != runs[0].events || r.drops != runs[0].drops {
				fail(fmt.Errorf("%s seed %d: runs differ: %d events %d drops, then %d events %d drops",
					scenarioNames[sc], seed, runs[0].events, runs[0].drops, r.events, r.drops))
			}
		}
		if sc == 0 {
			for _, r := range runs {
				if r.drops != 0 {
					fail(fmt.Errorf("sustained seed %d dropped %d frames at the Theorem 1 buffer", seed, r.drops))
				}
			}
		}
	}
	return wrong, first
}

func (n *netsimPacket) layers(l *layerSet, p *pass) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var events, drops, feedback, runs float64
	for _, rs := range n.runs {
		for _, r := range rs {
			events += float64(r.events)
			drops += float64(r.drops)
			feedback += float64(r.feedback)
			runs++
		}
	}
	l.set("netsim.events_per_run", ratio(events, runs), int(runs))
	l.set("netsim.drops_per_run", ratio(drops, runs), int(runs))
	l.set("bcn.feedback_per_run", ratio(feedback, runs), int(runs))
	l.set("netsim.ns_per_event", ratio(float64(n.runTime), events), int(runs))
	l.set("netsim.allocs_per_event", ratio(float64(n.allocs), events), int(runs))
	news := n.t.named("netsim.new")
	l.set("netsim.new_us", spanQuantile(news, 0.5, time.Microsecond), len(news))
	return nil
}

func (n *netsimPacket) close() {}
