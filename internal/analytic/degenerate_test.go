package analytic

import (
	"math"
	"testing"

	"bcnphase/internal/core"
)

// TestNearDegenerateAgreesWithRK45 sweeps the increase-region gain
// through a whisker (1e-9 … 1e-15, both signs) of the repeated
// eigenvalue threshold and demands the closed-form engine and the RK45
// baseline agree within the cross-check tolerance at every offset —
// the near-degenerate band in core.NewArc exists precisely so the
// F-form's 1/√disc coefficient blowup cannot flip a verdict here.
func TestNearDegenerateAgreesWithRK45(t *testing.T) {
	base := core.PaperExample()
	giCrit := base.AThreshold() / (base.Ru * float64(base.N))
	s := NewSolver()
	for _, eps := range []float64{0, 1e-9, -1e-9, 1e-11, -1e-11, 1e-13, -1e-13, 1e-15, -1e-15} {
		p := base
		p.Gi = giCrit * (1 + eps)
		if err := p.Validate(); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		closed, err := solve(s, p, Options{})
		if err != nil {
			t.Fatalf("eps=%g closed: %v", eps, err)
		}
		rk, err := solve(s, p, Options{Mode: ModeOff})
		if err != nil {
			t.Fatalf("eps=%g rk45: %v", eps, err)
		}
		if closed.Path != PathAnalytic {
			t.Fatalf("eps=%g: closed path fell back to %v", eps, closed.Path)
		}
		if closed.Outcome != rk.Outcome {
			t.Errorf("eps=%g: outcome closed=%v rk=%v", eps, closed.Outcome, rk.Outcome)
		}
		if closed.Crossings != rk.Crossings {
			t.Errorf("eps=%g: crossings closed=%d rk=%d", eps, closed.Crossings, rk.Crossings)
		}
		// 1e-5 relative: the integrator's event bisection resolves a steep
		// boundary crossing a few bits past the wall (time-resolution bound).
		if d := math.Abs(closed.MaxX - rk.MaxX); d > 1e-5*(math.Abs(closed.MaxX)+p.Q0) {
			t.Errorf("eps=%g: MaxX closed=%v rk=%v (Δ=%g)", eps, closed.MaxX, rk.MaxX, d)
		}
	}
}
