package phaseplane

import (
	"errors"
	"math"
	"testing"
)

// sectionY0 builds a return map on the section y = 0 for a companion
// system x” + c1·x' + c0·x = 0.
func sectionY0(c1, c0, horizon float64) *ReturnMap {
	return &ReturnMap{
		Field:   companion(c1, c0).Field(),
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: horizon,
	}
}

// TestReturnMapNeverCrosses drives a flow that leaves the section and
// never comes back: constant drift (1, 1) moves y monotonically up, so
// the rising crossing detected at the start can never recur.
func TestReturnMapNeverCrosses(t *testing.T) {
	m := &ReturnMap{
		Field:   func(x, y float64) (float64, float64) { return 1, 1 },
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: 50,
	}
	if _, _, err := m.Map(1); !errors.Is(err, ErrNoReturn) {
		t.Errorf("Map err = %v, want ErrNoReturn", err)
	}
	// The scan must propagate the failure instead of fabricating a root.
	if _, err := m.FixedPoint(0.5, 2, 4); !errors.Is(err, ErrNoReturn) {
		t.Errorf("FixedPoint err = %v, want ErrNoReturn", err)
	}
}

// TestReturnMapDegenerateNode uses repeated eigenvalues (c1² = 4·c0,
// the paper's Case 5 boundary): x(t) = (1+t)·e^{−t} from (1, 0) gives
// y(t) = −t·e^{−t}, which leaves the section and approaches it again
// from below without ever recrossing — no first return exists.
func TestReturnMapDegenerateNode(t *testing.T) {
	m := sectionY0(2, 1, 200)
	if _, _, err := m.Map(1); !errors.Is(err, ErrNoReturn) {
		t.Errorf("Map err = %v, want ErrNoReturn", err)
	}
}

// TestReturnMapZeroLengthTrajectory starts on the equilibrium itself:
// the flow is identically zero, the trajectory has zero length, and the
// map must fail with ErrNoReturn instead of reporting the start point as
// its own return.
func TestReturnMapZeroLengthTrajectory(t *testing.T) {
	m := sectionY0(1, 4, 20)
	if _, _, err := m.Map(0); !errors.Is(err, ErrNoReturn) {
		t.Errorf("Map(0) err = %v, want ErrNoReturn", err)
	}
}

// TestReturnMapIterateStopsOnFailure keeps the partial orbit when a
// return fails mid-iteration.
func TestReturnMapIterateStopsOnFailure(t *testing.T) {
	m := sectionY0(2, 1, 200)
	orbit, err := m.Iterate(1, 3)
	if !errors.Is(err, ErrNoReturn) {
		t.Fatalf("Iterate err = %v, want ErrNoReturn", err)
	}
	if len(orbit) != 1 || orbit[0] != 1 {
		t.Errorf("partial orbit = %v, want [1]", orbit)
	}
}

// TestReturnMapSpiralStillWorks pins the healthy path next to the edge
// cases: a stable focus two ticks away from the degenerate boundary
// contracts by exp(2π·α/β) per revolution.
func TestReturnMapSpiralStillWorks(t *testing.T) {
	m := sectionY0(1, 1, 100)
	next, period, err := m.Map(1)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	alpha, beta := -0.5, math.Sqrt(3)/2
	if want := math.Exp(2 * math.Pi * alpha / beta); math.Abs(next-want) > 1e-4 {
		t.Errorf("multiplier %v, want %v", next, want)
	}
	if want := 2 * math.Pi / beta; math.Abs(period-want) > 1e-4 {
		t.Errorf("period %v, want %v", period, want)
	}
}

// TestReturnMapRejectsInvalidODEOptions threads the new ode.Options
// validation through the map: poisoned tolerances must surface as a
// descriptive error, not integrate silently.
func TestReturnMapRejectsInvalidODEOptions(t *testing.T) {
	m := sectionY0(1, 4, 20)
	m.ODE.AbsTol = math.NaN()
	m.ODE.RelTol = 1e-9
	if _, _, err := m.Map(1); err == nil {
		t.Error("NaN AbsTol accepted")
	}
}
