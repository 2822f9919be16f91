package ode

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// decay is y' = -y with y(0)=1, exact y(t)=e^{-t}.
func decay(_ float64, y, dydt []float64) { dydt[0] = -y[0] }

// harmonic is x'=v, v'=-x with exact (cos t, -sin t) from (1, 0).
func harmonic(_ float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}

// rk4Final steps RK4 with uniform step h from t=0 to t1, shortening the
// last step to land exactly on t1, and returns the final state.
func rk4Final(t *testing.T, f Func, y0 []float64, t1, h float64) []float64 {
	t.Helper()
	y := append([]float64(nil), y0...)
	for tt := 0.0; tt < t1; {
		step := math.Min(h, t1-tt)
		if err := (RK4{}).Step(f, tt, y, step, y); err != nil {
			t.Fatalf("RK4.Step(t=%g): %v", tt, err)
		}
		tt += step
	}
	return y
}

func TestFixedSteppersAccuracy(t *testing.T) {
	t.Run("rk4", func(t *testing.T) {
		y := rk4Final(t, decay, []float64{1}, 2, 1e-3)
		if got := math.Abs(y[0] - math.Exp(-2)); got > 1e-8 {
			t.Errorf("final error %g > tol 1e-8", got)
		}
	})
}

// TestConvergenceOrder verifies RK4's empirical order of accuracy by
// halving the step and measuring the error ratio on the harmonic
// oscillator.
func TestConvergenceOrder(t *testing.T) {
	t.Run("rk4", func(t *testing.T) {
		errAt := func(h float64) float64 {
			y := rk4Final(t, harmonic, []float64{1, 0}, 1, h)
			return math.Hypot(y[0]-math.Cos(1), y[1]+math.Sin(1))
		}
		e1 := errAt(1e-2)
		e2 := errAt(5e-3)
		if order := math.Log2(e1 / e2); math.Abs(order-4) > 0.35 {
			t.Errorf("empirical order %.2f, want ~4 (e1=%g e2=%g)", order, e1, e2)
		}
	})
}

func TestDormandPrinceAccuracy(t *testing.T) {
	sol, err := DormandPrince(harmonic, 0, []float64{1, 0}, 10, DefaultOptions())
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	_, y := sol.Last()
	if e := math.Hypot(y[0]-math.Cos(10), y[1]+math.Sin(10)); e > 1e-6 {
		t.Errorf("final error %g too large", e)
	}
	if sol.Len() < 3 {
		t.Errorf("expected dense mesh, got %d points", sol.Len())
	}
}

func TestDormandPrinceStiffish(t *testing.T) {
	// y' = -50(y - cos t): moderately stiff; adaptive stepping must
	// survive with controlled error.
	f := func(tt float64, y, dydt []float64) { dydt[0] = -50 * (y[0] - math.Cos(tt)) }
	sol, err := DormandPrince(f, 0, []float64{0}, 3, DefaultOptions())
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	_, y := sol.Last()
	// Exact solution: y = (2500 cos t + 50 sin t)/2501 - (2500/2501) e^{-50 t}.
	exact := (2500*math.Cos(3) + 50*math.Sin(3)) / 2501
	if e := math.Abs(y[0] - exact); e > 1e-6 {
		t.Errorf("stiffish final error %g", e)
	}
}

func TestDormandPrinceEventTerminal(t *testing.T) {
	// Locate the first zero of cos(t) (the x-component of the harmonic
	// oscillator) at t = pi/2.
	opts := DefaultOptions()
	opts.Events = []Event{{
		G:        func(_ float64, y []float64) float64 { return y[0] },
		Terminal: true,
		Name:     "x=0",
	}}
	sol, err := DormandPrince(harmonic, 0, []float64{1, 0}, 10, opts)
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	if len(sol.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(sol.Events))
	}
	ev := sol.Events[0]
	if math.Abs(ev.T-math.Pi/2) > 1e-8 {
		t.Errorf("event at t=%.12f, want pi/2=%.12f", ev.T, math.Pi/2)
	}
	if math.Abs(ev.Y[0]) > 1e-8 {
		t.Errorf("event state x=%g, want ~0", ev.Y[0])
	}
	tEnd, _ := sol.Last()
	if math.Abs(tEnd-ev.T) > 1e-12 {
		t.Errorf("integration did not stop at terminal event: tEnd=%v", tEnd)
	}
}

func TestDormandPrinceEventDirection(t *testing.T) {
	// Rising-only zero crossings of sin(t): at 2*pi (not pi).
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	opts := DefaultOptions()
	opts.Events = []Event{{
		G:         func(_ float64, y []float64) float64 { return y[0] },
		Direction: +1,
		Terminal:  true,
	}}
	// Start at (0+, ...) just above zero going up? Use x=sin(t): start at
	// (0,1): first rising crossing after t=0 is 2*pi.
	sol, err := DormandPrince(f, 1e-9, []float64{math.Sin(1e-9), math.Cos(1e-9)}, 10, opts)
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	if len(sol.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(sol.Events))
	}
	if got := sol.Events[0].T; math.Abs(got-2*math.Pi) > 1e-7 {
		t.Errorf("rising crossing at %v, want 2*pi", got)
	}
}

func TestDormandPrinceNonTerminalEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.Events = []Event{{
		G: func(_ float64, y []float64) float64 { return y[0] },
	}}
	sol, err := DormandPrince(harmonic, 0, []float64{1, 0}, 10, opts)
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	// cos(t) has zeros at pi/2, 3pi/2, 5pi/2 within [0,10].
	if len(sol.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(sol.Events))
	}
	want := []float64{math.Pi / 2, 3 * math.Pi / 2, 5 * math.Pi / 2}
	for i, ev := range sol.Events {
		if math.Abs(ev.T-want[i]) > 1e-6 {
			t.Errorf("event %d at %v, want %v", i, ev.T, want[i])
		}
	}
}

func TestSolutionAt(t *testing.T) {
	sol, err := DormandPrince(decay, 0, []float64{1}, 2, DefaultOptions())
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	for _, tt := range []float64{0, 0.5, 1, 1.7, 2} {
		y, err := sol.At(tt)
		if err != nil {
			t.Fatalf("At(%v): %v", tt, err)
		}
		if e := math.Abs(y[0] - math.Exp(-tt)); e > 1e-4 {
			t.Errorf("At(%v) error %g", tt, e)
		}
	}
	// Clamping outside the interval.
	y, err := sol.At(-1)
	if err != nil || y[0] != 1 {
		t.Errorf("At(-1) = %v, %v; want clamped initial state", y, err)
	}
}

func TestSolutionComponent(t *testing.T) {
	sol := &Solution{}
	sol.append(0, []float64{1, 2})
	sol.append(1, []float64{3, 4})
	if got := sol.Component(1); got[0] != 2 || got[1] != 4 {
		t.Errorf("Component(1) = %v", got)
	}
}

func TestInvalidArgs(t *testing.T) {
	var zero [1]float64
	if err := (RK4{}).Step(decay, 0, []float64{1}, 0, zero[:]); !errors.Is(err, ErrStep) {
		t.Errorf("zero step: err=%v, want ErrStep", err)
	}
	if _, err := DormandPrince(decay, 1, []float64{1}, 0, Options{}); !errors.Is(err, ErrStep) {
		t.Errorf("reversed interval: err=%v, want ErrStep", err)
	}
	if _, err := DormandPrince(decay, 0, nil, 1, Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("empty state: err=%v, want ErrDimension", err)
	}
	var out [1]float64
	if err := (RK4{}).Step(decay, 0, []float64{1}, math.NaN(), out[:]); !errors.Is(err, ErrStep) {
		t.Errorf("NaN step: err=%v, want ErrStep", err)
	}
	if err := (RK4{}).Step(decay, 0, []float64{1, 2}, 0.1, out[:]); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched out: err=%v, want ErrDimension", err)
	}
}

func TestNotFiniteDetected(t *testing.T) {
	// Finite-time blowup (at t=1) whose derivative overflows to +Inf
	// once the state passes 10.
	blow := func(_ float64, y, dydt []float64) {
		if y[0] > 10 {
			dydt[0] = math.Inf(1)
			return
		}
		dydt[0] = y[0] * y[0]
	}
	_, err := DormandPrince(blow, 0, []float64{1}, 5, DefaultOptions())
	if !errors.Is(err, ErrNotFinite) && !errors.Is(err, ErrStep) {
		t.Errorf("blowup: err=%v, want ErrNotFinite", err)
	}
}

func TestMaxStepsRespected(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 3
	opts.MaxStep = 1e-6
	_, err := DormandPrince(harmonic, 0, []float64{1, 0}, 10, opts)
	if !errors.Is(err, ErrMaxSteps) {
		t.Errorf("err=%v, want ErrMaxSteps", err)
	}
}

// QuickLinear checks DormandPrince against the closed form of y' = -a*y for
// random decay rates and horizons (property-based).
func TestQuickLinearDecay(t *testing.T) {
	prop := func(aRaw, tRaw uint8) bool {
		a := 0.1 + float64(aRaw%50)/10 // 0.1 .. 5.0
		horizon := 0.1 + float64(tRaw%40)/10
		f := func(_ float64, y, dydt []float64) { dydt[0] = -a * y[0] }
		sol, err := DormandPrince(f, 0, []float64{1}, horizon, DefaultOptions())
		if err != nil {
			return false
		}
		_, y := sol.Last()
		return math.Abs(y[0]-math.Exp(-a*horizon)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnergyBound: RK45 on the undamped oscillator preserves energy to
// within tolerance over moderate horizons for random initial conditions.
func TestQuickEnergyBound(t *testing.T) {
	prop := func(xRaw, vRaw int8) bool {
		x0 := float64(xRaw) / 16
		v0 := float64(vRaw) / 16
		if x0 == 0 && v0 == 0 {
			return true
		}
		sol, err := DormandPrince(harmonic, 0, []float64{x0, v0}, 5, DefaultOptions())
		if err != nil {
			return false
		}
		e0 := x0*x0 + v0*v0
		_, y := sol.Last()
		e1 := y[0]*y[0] + y[1]*y[1]
		return math.Abs(e1-e0) < 1e-6*(1+e0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickEventInsideInterval: located event times always lie within the
// integration interval and the event function is ~0 there.
func TestQuickEventInsideInterval(t *testing.T) {
	prop := func(phaseRaw uint8) bool {
		phase := float64(phaseRaw) / 256 * math.Pi // 0 .. pi
		y0 := []float64{math.Cos(phase), -math.Sin(phase)}
		opts := DefaultOptions()
		opts.Events = []Event{{
			G:        func(_ float64, y []float64) float64 { return y[0] },
			Terminal: true,
		}}
		sol, err := DormandPrince(harmonic, 0, y0, 20, opts)
		if err != nil {
			return false
		}
		if len(sol.Events) == 0 {
			return false // cos always crosses zero within 20s
		}
		ev := sol.Events[0]
		return ev.T >= 0 && ev.T <= 20 && math.Abs(ev.Y[0]) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestHermiteEndpoints(t *testing.T) {
	y0 := []float64{1, 2}
	d0 := []float64{0.5, -1}
	y1 := []float64{3, 0}
	d1 := []float64{2, 2}
	out := make([]float64, 2)
	hermite(0, y0, d0, 1, y1, d1, 0, out)
	if out[0] != y0[0] || out[1] != y0[1] {
		t.Errorf("hermite(0) = %v, want %v", out, y0)
	}
	hermite(0, y0, d0, 1, y1, d1, 1, out)
	if math.Abs(out[0]-y1[0]) > 1e-12 || math.Abs(out[1]-y1[1]) > 1e-12 {
		t.Errorf("hermite(1) = %v, want %v", out, y1)
	}
}

func TestCrossedDirections(t *testing.T) {
	cases := []struct {
		g0, g1 float64
		dir    int
		want   bool
	}{
		{-1, 1, 0, true},
		{-1, 1, +1, true},
		{-1, 1, -1, false},
		{1, -1, 0, true},
		{1, -1, -1, true},
		{1, -1, +1, false},
		{1, 2, 0, false},
		{-1, -2, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		if got := crossed(c.g0, c.g1, c.dir); got != c.want {
			t.Errorf("crossed(%v,%v,%d) = %v, want %v", c.g0, c.g1, c.dir, got, c.want)
		}
	}
}
