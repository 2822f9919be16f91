package phaseplane

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// companion builds the companion-form system x' = y, y' = -n·x - m·y
// whose characteristic polynomial is λ² + m·λ + n (the form of the BCN
// linearized subsystems, eq. (10) of the paper).
func companion(m, n float64) Linear2 {
	return Linear2{A12: 1, A21: -n, A22: -m}
}

// linearField returns the vector field of the linear system l.
func linearField(l Linear2) VectorField {
	return func(x, y float64) (float64, float64) {
		return l.A11*x + l.A12*y, l.A21*x + l.A22*y
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		sys  Linear2
		want SingularKind
	}{
		{"stable focus", companion(1, 4), KindStableFocus},      // λ²+λ+4
		{"unstable focus", companion(-1, 4), KindUnstableFocus}, // λ²-λ+4
		{"center", companion(0, 1), KindCenter},
		{"stable node", companion(5, 4), KindStableNode}, // roots -1,-4
		{"unstable node", companion(-5, 4), KindUnstableNode},
		{"saddle", companion(0, -1), KindSaddle}, // roots ±1
		{"degenerate stable", companion(2, 1), KindDegenerateStableNode},
		{"degenerate unstable", companion(-2, 1), KindDegenerateUnstableNode},
		{"singular", companion(1, 0), KindUnknown},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.sys.Classify(); got != c.want {
				t.Errorf("Classify() = %v, want %v", got, c.want)
			}
		})
	}
}

// TestQuickClassifyMatchesEigen: classification agrees with the signs of
// the characteristic roots for random companion systems.
func TestQuickClassifyMatchesEigen(t *testing.T) {
	prop := func(mRaw, nRaw int8) bool {
		m := float64(mRaw) / 8
		n := float64(nRaw) / 8
		kind := companion(m, n).Classify()
		if n == 0 {
			return kind == KindUnknown
		}
		// The roots of λ² + mλ + n: -m/2 ± i·√(4n-m²)/2 when complex,
		// (-m ∓ √(m²-4n))/2 otherwise.
		disc := m*m - 4*n
		if disc < 0 {
			switch {
			case m > 0:
				return kind == KindStableFocus
			case m < 0:
				return kind == KindUnstableFocus
			default:
				return kind == KindCenter
			}
		}
		l1, l2 := (-m-math.Sqrt(disc))/2, (-m+math.Sqrt(disc))/2
		switch {
		case l1 < 0 && l2 < 0:
			return kind == KindStableNode || kind == KindDegenerateStableNode
		case l1 > 0 && l2 > 0:
			return kind == KindUnstableNode || kind == KindDegenerateUnstableNode
		default:
			return kind == KindSaddle
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func vanDerPol(mu float64) VectorField {
	return func(x, y float64) (float64, float64) {
		return y, mu*(1-x*x)*y - x
	}
}

func vdpReturnMap(mu float64) *ReturnMap {
	return &ReturnMap{
		Field:   vanDerPol(mu),
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: 100,
	}
}

func TestReturnMapVanDerPolLimitCycle(t *testing.T) {
	// The Van der Pol oscillator (mu=1) has a stable limit cycle with
	// x-amplitude ~2.009 on the section y=0.
	m := vdpReturnMap(1)
	sStar, err := m.FixedPoint(0.5, 4, 16)
	if err != nil {
		t.Fatalf("FixedPoint: %v", err)
	}
	if math.Abs(sStar-2.009) > 0.05 {
		t.Errorf("limit cycle amplitude %v, want ~2.009", sStar)
	}
	// The cycle is attracting: |P'(s*)| < 1.
	deriv, err := m.Stability(sStar, 0)
	if err != nil {
		t.Fatalf("Stability: %v", err)
	}
	if math.Abs(deriv) >= 1 {
		t.Errorf("|P'(s*)| = %v, want < 1 (attracting)", math.Abs(deriv))
	}
}

func TestReturnMapIterateConvergesToCycle(t *testing.T) {
	m := vdpReturnMap(1)
	orbit, err := m.Iterate(0.5, 12)
	if err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	last := orbit[len(orbit)-1]
	if math.Abs(last-2.009) > 0.05 {
		t.Errorf("orbit converged to %v, want ~2.009", last)
	}
}

func TestReturnMapNoFixedPoint(t *testing.T) {
	// Linear stable focus: return map is a pure contraction, no
	// nontrivial fixed point.
	sys := companion(1, 4)
	m := &ReturnMap{
		Field:   linearField(sys),
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: 100,
	}
	if _, err := m.FixedPoint(0.5, 4, 8); !errors.Is(err, ErrNoFixedPoint) {
		t.Errorf("err = %v, want ErrNoFixedPoint", err)
	}
}

func TestReturnMapContractionFactor(t *testing.T) {
	// For the linear stable focus x''+x'+4x=0 the return-map multiplier
	// over a full revolution is exp(2*pi*alpha/beta) with alpha=-1/2,
	// beta=sqrt(15)/2.
	sys := companion(1, 4)
	m := &ReturnMap{
		Field:   linearField(sys),
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: 100,
	}
	next, period, err := m.Map(1)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	alpha, beta := -0.5, math.Sqrt(15)/2
	wantRho := math.Exp(2 * math.Pi * alpha / beta)
	wantPeriod := 2 * math.Pi / beta
	if math.Abs(next-wantRho) > 1e-4 {
		t.Errorf("multiplier %v, want %v", next, wantRho)
	}
	if math.Abs(period-wantPeriod) > 1e-4 {
		t.Errorf("period %v, want %v", period, wantPeriod)
	}
}

func TestReturnMapValidation(t *testing.T) {
	m := &ReturnMap{}
	if _, _, err := m.Map(1); err == nil {
		t.Error("empty ReturnMap should error")
	}
	if _, err := m.FixedPoint(1, 0, 8); err == nil {
		t.Error("reversed interval should error")
	}
	good := vdpReturnMap(1)
	if _, err := good.FixedPoint(0.5, 4, 1); err == nil {
		t.Error("nScan < 2 should error")
	}
}

func TestGrid(t *testing.T) {
	arrows, err := Grid(linearField(companion(0, 1)), -1, 1, -1, 1, 5, 5)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(arrows) != 25 {
		t.Fatalf("got %d arrows, want 25", len(arrows))
	}
	for _, a := range arrows {
		if a.Mag > 0 {
			if n := math.Hypot(a.U, a.V); math.Abs(n-1) > 1e-12 {
				t.Errorf("arrow at (%v,%v) not unit: %v", a.X, a.Y, n)
			}
		}
	}
	if _, err := Grid(linearField(companion(0, 1)), -1, 1, -1, 1, 1, 5); err == nil {
		t.Error("nx < 2 should error")
	}
	if _, err := Grid(linearField(companion(0, 1)), 1, -1, -1, 1, 5, 5); err == nil {
		t.Error("empty extent should error")
	}
}

func TestSingularKindStrings(t *testing.T) {
	kinds := []SingularKind{
		KindUnknown, KindStableFocus, KindUnstableFocus, KindCenter,
		KindStableNode, KindUnstableNode, KindSaddle,
		KindDegenerateStableNode, KindDegenerateUnstableNode,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Errorf("empty name for %d", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate name %q", s)
		}
		seen[s] = true
	}
}
