package analytic

import "bcnphase/internal/telemetry"

// Metrics instruments the analytic engine. A nil *Metrics is inert (one
// nil comparison per solve). Solver.Solve with Metrics attached touches
// the registry once per point; the two batch paths, Batch.Solve and
// cluster.GainGrid.EvalBatch, solve with Metrics detached, fold each
// result into a Tally and flush it once per call or span.
type Metrics struct {
	// Solves counts classified points, split by execution path.
	Solves *telemetry.CounterVec
	// Arcs counts stitched arcs, split by execution path — the
	// analytic-vs-rk45 arc summary the CLIs print comes from here.
	Arcs *telemetry.CounterVec
	// Crossings counts switching-line crossings.
	Crossings *telemetry.Counter
	// Extrema counts recorded x-extrema.
	Extrema *telemetry.Counter
	// RK45Fallbacks counts ModeOn points whose closed form went
	// non-finite and re-ran on the integrator. Nonzero values deserve a
	// look: the closed forms cover every valid regime.
	RK45Fallbacks *telemetry.Counter
	// Outcomes tallies verdicts by name.
	Outcomes *telemetry.CounterVec
}

// NewMetrics registers the analytic engine family on r. A nil registry
// yields a nil (inert) Metrics.
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Solves:        r.CounterVec("analytic_solves_total", "points classified by the analytic engine", "path"),
		Arcs:          r.CounterVec("analytic_arcs_total", "arcs stitched by the analytic engine", "path"),
		Crossings:     r.Counter("analytic_crossings_total", "switching-line crossings stitched"),
		Extrema:       r.Counter("analytic_extrema_total", "x-extrema recorded"),
		RK45Fallbacks: r.Counter("analytic_rk45_fallbacks_total", "closed-form solves that went non-finite and re-ran on rk45"),
		Outcomes:      r.CounterVec("analytic_outcomes_total", "analytic engine verdicts", "outcome"),
	}
}

// observe folds one finished solve into the registry.
func (m *Metrics) observe(res *Result) {
	if m == nil {
		return
	}
	path := res.Path.String()
	m.Solves.With(path).Inc()
	m.Arcs.With(path).Add(uint64(res.Arcs))
	m.Crossings.Add(uint64(res.Crossings))
	m.Extrema.Add(uint64(res.Extrema))
	if res.Outcome != 0 {
		m.Outcomes.With(res.Outcome.String()).Inc()
	}
}
