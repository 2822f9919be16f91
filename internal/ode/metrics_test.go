package ode

import (
	"math"
	"testing"

	"bcnphase/internal/telemetry"
)

func TestDormandPrinceMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := testMetrics(reg)
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	sol, err := DormandPrince(f, 0, []float64{1}, 5, Options{
		AbsTol: 1e-9, RelTol: 1e-9, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := m.Steps.Value()
	if steps == 0 {
		t.Fatalf("no accepted steps counted")
	}
	// Dormand-Prince spends 6 fresh stages per attempted step (FSAL
	// reuses the 7th) plus the initial evaluations, so RHS evals must
	// dominate step counts.
	if evals := m.RHSEvals.Value(); evals < 6*steps {
		t.Fatalf("rhs evals %d < 6*steps %d", evals, 6*steps)
	}
	want := math.Exp(-5)
	if got := sol.Y[len(sol.Y)-1][0]; math.Abs(got-want) > 1e-6 {
		t.Fatalf("solution drifted with metrics on: got %v want %v", got, want)
	}
}

func TestDormandPrinceRejectedCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := testMetrics(reg)
	// A stiff-ish oscillator with a deliberately huge initial step
	// forces the controller to reject at least once.
	f := func(tt float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -2500 * y[0]
	}
	_, err := DormandPrince(f, 0, []float64{1, 0}, 1, Options{
		AbsTol: 1e-10, RelTol: 1e-10, InitialStep: 0.5, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected.Value() == 0 {
		t.Fatalf("expected at least one rejected step")
	}
}

func TestNilMetricsSafe(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	if _, err := DormandPrince(f, 0, []float64{1}, 1, Options{AbsTol: 1e-8, RelTol: 1e-8}); err != nil {
		t.Fatal(err)
	}
}

// testMetrics registers the integrator's instruments on r.
func testMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Steps:    r.Counter("ode_steps_total", "accepted adaptive integrator steps"),
		Rejected: r.Counter("ode_rejected_steps_total", "error-controller step rejections"),
		RHSEvals: r.Counter("ode_rhs_evals_total", "right-hand-side evaluations"),
	}
}
