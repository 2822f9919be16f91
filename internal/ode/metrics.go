package ode

import "bcnphase/internal/telemetry"

// Metrics carries the integrator's hot-loop instruments. A nil *Metrics
// (the default) is fully inert: the adaptive driver takes one extra nil
// comparison per step and the RHS is not wrapped at all, keeping the
// disabled-telemetry path inside the repo's <5% overhead budget.
type Metrics struct {
	// Steps counts accepted steps across all integrations.
	Steps *telemetry.Counter
	// Rejected counts error-controller step rejections.
	Rejected *telemetry.Counter
	// RHSEvals counts right-hand-side evaluations (the true cost unit
	// of an adaptive run: stages, FSAL recomputes, event bisection).
	RHSEvals *telemetry.Counter
}

// instrument wraps f to count RHS evaluations; called only when m is
// non-nil so the disabled path never pays the indirection.
func (m *Metrics) instrument(f Func) Func {
	c := m.RHSEvals
	return func(t float64, y, dydt []float64) {
		c.Inc()
		f(t, y, dydt)
	}
}
