package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/sweep"
	"bcnphase/internal/telemetry"
)

// sweepSteps is the sweep-local grid resolution (32×32 points).
const sweepSteps = 32

// sweepGrids is how many distinct grids a sweep-local run cycles
// through; each gets one reference map, made before the timed phase.
const sweepGrids = 256

// localBatch is the span length bcnsweep hands RunBatched.
const localBatch = 64

// sweepLocal runs grids the way bcnsweep's journal-free local path does:
// RunBatched over GainGrid.EvalBatch spans, then RenderCSV.
type sweepLocal struct {
	t     *tracer
	grids []cluster.GainGrid
	reg   *telemetry.Registry
	em    cluster.EvalMetrics
	opts  sweep.Options

	refs [][]byte // per-point Eval maps, one per grid

	mu    sync.Mutex
	wrong int
	first error
	// heap allocations across RunBatched, points and maps (traced pass)
	allocs uint64
	points int
	maps   int
	a0     analyticCounts // when the timed phase began
}

func setupSweepLocal(e env) (fixture, error) {
	reg := telemetry.NewRegistry()
	s := &sweepLocal{
		t:     e.t,
		grids: genGrids(e.seed, sweepGrids, sweepSteps),
		reg:   reg,
		em:    cluster.EvalMetrics{Solve: core.NewSolveMetrics(reg), Analytic: analytic.NewMetrics(reg)},
		opts: sweep.Options{
			PointTimeout:    time.Minute,
			ContinueOnError: true,
			Metrics:         sweep.NewMetrics(reg),
		},
	}
	for _, g := range s.grids {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	// Warm-up: a few maps of grids outside the input list.
	for k := 0; k < 8; k++ {
		if _, err := s.sweepMap(context.Background(), genGrid(e.seed^int64(streamWarmup), k, sweepSteps), -1); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	s.a0 = readAnalytic(reg)
	return s, nil
}

// prepareSweepLocal renders every grid's reference map point by point
// with GainGrid.Eval.
func prepareSweepLocal(fx fixture) error {
	s := fx.(*sweepLocal)
	s.refs = make([][]byte, len(s.grids))
	for k, g := range s.grids {
		ref, err := localMap(g)
		if err != nil {
			return fmt.Errorf("reference map %d: %w", k, err)
		}
		s.refs[k] = ref
	}
	return nil
}

func (s *sweepLocal) input(i int) (any, error) { return i % len(s.grids), nil }

func (s *sweepLocal) op(ctx context.Context, i int, in any) (any, error) {
	return s.sweepMap(ctx, s.grids[in.(int)], i)
}

// sweepMap evaluates one grid to its map.csv bytes.
func (s *sweepLocal) sweepMap(ctx context.Context, g cluster.GainGrid, op int) ([]byte, error) {
	pts := g.Points()
	var a0 uint64
	if s.t != nil {
		a0 = heapAllocs()
	}
	rb := s.t.begin("sweep.run_batched", int64(op), 0)
	results, err := sweep.RunBatched(ctx, pts, localBatch,
		func(ctx context.Context, pts []cluster.GainPoint, rows []cluster.Row) error {
			eb := s.t.begin("cluster.eval_batch", int64(op), rb.id())
			err := g.EvalBatch(ctx, pts, rows, s.em)
			eb.s.Points = int64(len(pts))
			eb.end()
			return err
		}, s.opts)
	rb.end()
	if s.t != nil && op >= 0 {
		s.mu.Lock()
		s.allocs += heapAllocs() - a0
		s.points += len(pts)
		s.maps++
		s.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	rows := make([]cluster.Row, len(results))
	for k, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("point Gi=%g Gd=%g: %w", r.Point.Gi, r.Point.Gd, r.Err)
		}
		rows[k] = r.Value
	}
	rc := s.t.begin("cluster.render_csv", int64(op), 0)
	csv := cluster.RenderCSV(rows)
	rc.end()
	return csv, nil
}

func (s *sweepLocal) keep(i int, in, out any) {
	if bytes.Equal(out.([]byte), s.refs[in.(int)]) {
		return
	}
	s.mu.Lock()
	s.wrong++
	if s.first == nil {
		s.first = fmt.Errorf("operation %d: map of grid %d differs from its per-point Eval map", i, in.(int))
	}
	s.mu.Unlock()
}

func (s *sweepLocal) check() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wrong > 0 {
		return s.wrong, s.first
	}
	cov := caseCoverage(s.grids)
	if cov[core.Case1] == 0 || cov[core.Case4] == 0 || cov[core.Case5] == 0 {
		return 0, fmt.Errorf("grid list misses a case: %v", cov)
	}
	return 0, nil
}

func (s *sweepLocal) layers(l *layerSet, p *pass) error {
	readAnalytic(s.reg).since(s.a0).report(l)

	evals := s.t.named("cluster.eval_batch")
	var evalPts int64
	for _, e := range evals {
		evalPts += e.Points
	}
	l.set("cluster.eval_batch_ns_per_point", ratio(float64(spanTotal(evals)), float64(evalPts)), len(evals))

	runs := s.t.named("sweep.run_batched")
	byParent := make(map[int64][]span)
	for _, e := range evals {
		byParent[e.Parent] = append(byParent[e.Parent], e)
	}
	var self []float64
	for _, r := range runs {
		self = append(self, float64(selfTime(r, byParent[r.ID]))/1e3)
	}
	l.set("sweep.self_us_per_map", median(self), len(self))
	l.set("sweep.allocs_per_point", ratio(float64(s.allocs), float64(s.points)), s.maps)
	renders := s.t.named("cluster.render_csv")
	l.set("cluster.render_csv_us", spanQuantile(renders, 0.5, time.Microsecond), len(renders))

	var params []core.Params
	for _, g := range s.grids[:8] {
		params = append(params, gridParams(g)...)
	}
	return probeBatch(l, params)
}

// gridParams materializes every point of g as a parameter set.
func gridParams(g cluster.GainGrid) []core.Params {
	base := g.Base()
	pts := g.Points()
	out := make([]core.Params, len(pts))
	for k, pt := range pts {
		out[k] = base
		out[k].Gi, out[k].Gd = pt.Gi, pt.Gd
	}
	return out
}

func (s *sweepLocal) close() {}

// localMap renders g's map.csv point by point with GainGrid.Eval: the
// reference the sweep-local and cluster-sweep checks compare against.
func localMap(g cluster.GainGrid) ([]byte, error) {
	rows := make([]cluster.Row, 0, g.Steps*g.Steps)
	for _, pt := range g.Points() {
		row, err := g.Eval(context.Background(), pt, cluster.EvalMetrics{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return cluster.RenderCSV(rows), nil
}

// analyticCounts are the analytic engine's work counters.
type analyticCounts struct{ solves, arcs, fallbacks float64 }

// readAnalytic sums the analytic_* counters of regs.
func readAnalytic(regs ...*telemetry.Registry) analyticCounts {
	var a analyticCounts
	for _, r := range regs {
		snap := r.Snapshot()
		a.solves += familySum(snap, "analytic_solves_total")
		a.arcs += familySum(snap, "analytic_arcs_total")
		a.fallbacks += familySum(snap, "analytic_rk45_fallbacks_total")
	}
	return a
}

func (a analyticCounts) since(b analyticCounts) analyticCounts {
	return analyticCounts{a.solves - b.solves, a.arcs - b.arcs, a.fallbacks - b.fallbacks}
}

// report sets the per-point analytic work metrics.
func (a analyticCounts) report(l *layerSet) {
	l.set("analytic.arcs_per_point", ratio(a.arcs, a.solves), int(a.solves))
	l.set("analytic.rk45_fallback_share", ratio(a.fallbacks, a.solves), int(a.solves))
}

// familySum adds up every series of a counter family.
func familySum(snap telemetry.Snapshot, name string) float64 {
	f, ok := snap.Get(name)
	if !ok {
		return 0
	}
	var v float64
	for _, s := range f.Series {
		v += s.Value
	}
	return v
}
