package analytic

import "bcnphase/internal/core"

// Batch is the structure-of-arrays result of a batched solve: column i
// of every slice is the verdict for params[i]. A Batch owns its backing
// slices and reuses them across Solve calls, so a warm Batch driven by
// one goroutine solves at zero steady-state allocations (asserted by
// TestBatchSolveAllocs).
type Batch struct {
	// Outcome, Path, Arcs, Crossings are the per-point classification.
	Outcome   []core.Outcome
	Path      []Path
	Arcs      []int
	Crossings []int
	// MaxX, MinX, Rho, EndT, EndX, EndY are the per-point measurements.
	MaxX, MinX []float64
	Rho        []float64
	EndT       []float64
	EndX, EndY []float64
	// Err holds per-point failures (invalid params); nil entries solved.
	Err []error

	solver Solver
}

// NewBatch returns a Batch with capacity for n points.
func NewBatch(n int) *Batch {
	b := new(Batch)
	b.Resize(n)
	return b
}

// Resize sets the batch length to n, growing the backing arrays only
// when n exceeds their capacity.
func (b *Batch) Resize(n int) {
	b.Outcome = grow(b.Outcome, n)
	b.Path = grow(b.Path, n)
	b.Arcs = grow(b.Arcs, n)
	b.Crossings = grow(b.Crossings, n)
	b.MaxX = grow(b.MaxX, n)
	b.MinX = grow(b.MinX, n)
	b.Rho = grow(b.Rho, n)
	b.EndT = grow(b.EndT, n)
	b.EndX = grow(b.EndX, n)
	b.EndY = grow(b.EndY, n)
	b.Err = grow(b.Err, n)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// Len returns the batch length.
func (b *Batch) Len() int { return len(b.Outcome) }

// Solve classifies every point of params into the batch columns,
// resizing to len(params). Per-point options apply uniformly; metrics
// are tallied locally and flushed to the registry once per call.
// Point failures land in Err[i] — Solve itself never fails.
func (b *Batch) Solve(params []core.Params, opts Options) {
	b.Resize(len(params))
	// Strip the per-point metrics hook: the loop below flushes one
	// aggregate instead of len(params) registry touches.
	m := opts.Metrics
	opts.Metrics = nil

	var tally Tally
	var res Result
	for i := range params {
		if err := b.solver.Solve(&params[i], &opts, &res); err != nil {
			b.Err[i] = err
			b.Outcome[i] = 0
			b.Path[i] = 0
			continue
		}
		b.Err[i] = nil
		b.Outcome[i] = res.Outcome
		b.Path[i] = res.Path
		b.Arcs[i] = res.Arcs
		b.Crossings[i] = res.Crossings
		b.MaxX[i] = res.MaxX
		b.MinX[i] = res.MinX
		b.Rho[i] = res.Rho
		b.EndT[i] = res.EndT
		b.EndX[i] = res.EndX
		b.EndY[i] = res.EndY
		tally.Fold(&res, opts.Mode)
	}
	tally.Flush(m)
}

// Tally accumulates engine metrics locally across many solves run with
// a nil Options.Metrics, so a batch touches the registry once instead of
// once per point: Batch.Solve folds every point of a call into one, and
// cluster.GainGrid.EvalBatch every point of a span. The registry totals
// equal those of attaching the Metrics to each solve. The zero value is
// ready. Outcome tallies index core.Outcome values directly (small
// dense enum).
type Tally struct {
	solves, arcs       [2]uint64 // indexed by Path-1
	crossings, extrema uint64
	fallbacks          uint64
	outcomes           [8]uint64
}

// Fold adds one successful solve, run under mode, to the tally. A
// ModeOn result that took the RK45 path counts as a fallback.
func (a *Tally) Fold(res *Result, mode Mode) {
	if mode != ModeOff && res.Path == PathRK45 {
		a.fallbacks++
	}
	if res.Path == PathAnalytic || res.Path == PathRK45 {
		a.solves[res.Path-1]++
		a.arcs[res.Path-1] += uint64(res.Arcs)
	}
	a.crossings += uint64(res.Crossings)
	a.extrema += uint64(res.Extrema)
	if o := int(res.Outcome); o > 0 && o < len(a.outcomes) {
		a.outcomes[o]++
	}
}

// Flush adds the tally to m's counters; a nil m is inert. Flush does
// not reset the tally.
func (a *Tally) Flush(m *Metrics) {
	if m == nil {
		return
	}
	for i, p := range [...]Path{PathAnalytic, PathRK45} {
		if a.solves[i] > 0 {
			m.Solves.With(p.String()).Add(a.solves[i])
		}
		if a.arcs[i] > 0 {
			m.Arcs.With(p.String()).Add(a.arcs[i])
		}
	}
	if a.crossings > 0 {
		m.Crossings.Add(a.crossings)
	}
	if a.extrema > 0 {
		m.Extrema.Add(a.extrema)
	}
	if a.fallbacks > 0 {
		m.RK45Fallbacks.Add(a.fallbacks)
	}
	for o := 1; o < len(a.outcomes); o++ {
		if a.outcomes[o] > 0 {
			m.Outcomes.With(core.Outcome(o).String()).Add(a.outcomes[o])
		}
	}
}
