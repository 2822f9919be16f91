package core

import (
	"errors"
	"math"
	"testing"

	"bcnphase/internal/ode"
)

// TestRawAndNormalizedModelsAgree integrates the raw fluid model (q, r)
// of eqs. (4)/(7) and the normalized model (x, y) of eq. (8) from
// equivalent initial conditions: the trajectories must coincide under the
// coordinate change x = q − q0, y = N·r − C.
func TestRawAndNormalizedModelsAgree(t *testing.T) {
	p := FigureExample()
	horizon := 4e-3 // about two oscillation rounds

	q0, r0 := p.ShiftedToRaw(-p.Q0/2, 0.1*p.C)
	solRaw, err := ode.DormandPrince(p.RawRHS(), 0, []float64{q0, r0}, horizon, ode.DefaultOptions())
	if err != nil {
		t.Fatalf("raw integration: %v", err)
	}
	solNorm, err := ode.DormandPrince(p.FluidRHS(), 0, []float64{-p.Q0 / 2, 0.1 * p.C}, horizon, ode.DefaultOptions())
	if err != nil {
		t.Fatalf("normalized integration: %v", err)
	}
	for _, frac := range []float64{0.2, 0.5, 0.8, 1.0} {
		tt := horizon * frac
		yr, err := solRaw.At(tt)
		if err != nil {
			t.Fatal(err)
		}
		yn, err := solNorm.At(tt)
		if err != nil {
			t.Fatal(err)
		}
		x, y := p.RawToShifted(yr[0], yr[1])
		if math.Abs(x-yn[0]) > 1e-3*p.Q0 {
			t.Errorf("t=%v: raw x=%v vs normalized x=%v", tt, x, yn[0])
		}
		if math.Abs(y-yn[1]) > 1e-3*p.C {
			t.Errorf("t=%v: raw y=%v vs normalized y=%v", tt, y, yn[1])
		}
	}
}

// TestFluidFieldMatchesRHS: the phaseplane vector field and the ode RHS
// are the same function in two shapes.
func TestFluidFieldMatchesRHS(t *testing.T) {
	p := FigureExample()
	rhs := p.FluidRHS()
	field := p.FluidField()
	dydt := make([]float64, 2)
	for _, pt := range [][2]float64{{-p.Q0, 0}, {1e4, 2e8}, {-1e4, -3e8}, {0, 0}} {
		rhs(0, []float64{pt[0], pt[1]}, dydt)
		u, v := field(pt[0], pt[1])
		if dydt[0] != u || dydt[1] != v {
			t.Errorf("at %v: RHS (%v, %v) vs field (%v, %v)", pt, dydt[0], dydt[1], u, v)
		}
	}
}

// TestFieldContinuousAcrossSwitchingLine: the nonlinear field's two
// branches agree (both vanish in dy/dt) on the switching line.
func TestFieldContinuousAcrossSwitchingLine(t *testing.T) {
	p := FigureExample()
	field := p.FluidField()
	k := p.K()
	for _, y := range []float64{1e6, 1e8, -1e8} {
		x := -k * y // on the line
		eps := math.Abs(x)*1e-9 + 1e-12
		_, dyAbove := field(x+eps, y)
		_, dyBelow := field(x-eps, y)
		// Both one-sided slopes scale with the distance eps from the
		// line; the jump must vanish at that same rate (Lipschitz
		// bound (a + b(y+C))·eps), which is what continuity means for
		// the switched field.
		bound := 2 * (p.A() + p.Bcoef()*(y+p.C)) * eps
		if math.Abs(dyAbove-dyBelow) > bound+1e-12 {
			t.Errorf("y=%v: field jumps across the line: %v vs %v (bound %v)", y, dyAbove, dyBelow, bound)
		}
	}
}

func TestRequiredBufferAlias(t *testing.T) {
	p := PaperExample()
	if RequiredBuffer(p) != Theorem1Bound(p) {
		t.Error("RequiredBuffer must equal Theorem1Bound")
	}
}

func TestTrajectoryMinQueue(t *testing.T) {
	p := FigureExample()
	tr, err := Solve(p, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.MinQueue(), p.Q0+tr.MinX; got != want {
		t.Errorf("MinQueue = %v, want %v", got, want)
	}
	if tr.MinQueue() <= 0 || tr.MinQueue() >= p.Q0 {
		t.Errorf("MinQueue = %v, want inside (0, q0)", tr.MinQueue())
	}
}

func TestLinearDiscriminant(t *testing.T) {
	l := Linear{M: 5, N: 4}
	if got := l.Discriminant(); got != 9 {
		t.Errorf("Discriminant = %v, want 9", got)
	}
}

func TestCriticalArcEigen(t *testing.T) {
	arc, err := NewArc(4, 4, 0.5, 1, 0) // repeated eigenvalue −2
	if err != nil {
		t.Fatal(err)
	}
	if arc.Kind() != ArcCritical {
		t.Fatalf("want critical arc, got %v", arc.Kind())
	}
	if l1, l2 := arc.Eigen(); l1 != -2 || l2 != -2 {
		t.Errorf("Eigen = (%v, %v), want (-2, -2)", l1, l2)
	}
}

// TestNonFiniteRHSSurfacesWithPartialSolution: when the fluid RHS starts
// producing NaN mid-trajectory (after the trajectory has already switched
// control regions), the integrator must surface ode.ErrNotFinite while
// retaining the finite prefix of the solution, so callers can report a
// truncated trajectory instead of nothing.
func TestNonFiniteRHSSurfacesWithPartialSolution(t *testing.T) {
	p := FigureExample()
	const horizon = 4e-3
	const tBad = 2e-3 // past the first region switch, before the horizon

	rhs := p.FluidRHS()
	poisoned := func(tt float64, y, dydt []float64) {
		rhs(tt, y, dydt)
		if tt > tBad {
			dydt[1] = math.NaN()
		}
	}
	sol, err := ode.DormandPrince(poisoned, 0, []float64{-p.Q0 / 2, 0.1 * p.C}, horizon, ode.DefaultOptions())
	if !errors.Is(err, ode.ErrNotFinite) {
		t.Fatalf("err = %v, want ErrNotFinite", err)
	}
	if sol.Len() == 0 {
		t.Fatal("partial solution discarded")
	}
	last := sol.T[sol.Len()-1]
	if last <= 0 || last >= horizon {
		t.Errorf("partial solution ends at t=%v, want within (0, %v)", last, horizon)
	}
	// Every retained sample must be finite, and the prefix must have
	// genuinely crossed the switching line s = x + K·y before poisoning.
	k := p.K()
	var sawNeg, sawPos bool
	for i := 0; i < sol.Len(); i++ {
		x, y := sol.Y[i][0], sol.Y[i][1]
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			t.Fatalf("non-finite sample retained at t=%v: (%v, %v)", sol.T[i], x, y)
		}
		if s := x + k*y; s < 0 {
			sawNeg = true
		} else if s > 0 {
			sawPos = true
		}
	}
	if !sawNeg || !sawPos {
		t.Errorf("prefix never switched regions (neg=%t pos=%t); tBad too early for this scenario", sawNeg, sawPos)
	}
}
