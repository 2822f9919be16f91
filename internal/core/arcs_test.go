package core

import (
	"math"
	"testing"
	"testing/quick"

	"bcnphase/internal/ode"
)

// arcCases is a spread of (m, n, k) regimes covering all three families.
var arcCases = []struct {
	name    string
	m, n, k float64
	kind    ArcKind
}{
	{"spiral fast", 1, 4, 0.5, ArcSpiral},
	{"spiral slow", 0.1, 100, 0.01, ArcSpiral},
	{"node", 5, 4, 0.3, ArcNode},
	{"node stiff", 20, 4, 0.1, ArcNode},
	{"critical", 4, 4, 0.5, ArcCritical},
}

func TestNewArcKinds(t *testing.T) {
	for _, c := range arcCases {
		t.Run(c.name, func(t *testing.T) {
			arc, err := NewArc(c.m, c.n, c.k, 1, 0.5)
			if err != nil {
				t.Fatalf("NewArc: %v", err)
			}
			if arc.Kind() != c.kind {
				t.Errorf("Kind() = %v, want %v", arc.Kind(), c.kind)
			}
			if ts := arc.TimeScale(); !(ts > 0) {
				t.Errorf("TimeScale() = %v, want positive", ts)
			}
		})
	}
}

func TestNewArcRejects(t *testing.T) {
	if _, err := NewArc(0, 1, 1, 1, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewArc(1, -1, 1, 1, 1); err == nil {
		t.Error("n<0 accepted")
	}
	if _, err := NewArc(1, 1, 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestArcInitialCondition(t *testing.T) {
	for _, c := range arcCases {
		for _, ic := range [][2]float64{{1, 0}, {0, 1}, {-2, 3}, {0.1, -0.7}, {-1, -1}} {
			arc, err := NewArc(c.m, c.n, c.k, ic[0], ic[1])
			if err != nil {
				t.Fatalf("%s: NewArc: %v", c.name, err)
			}
			x, y := arc.At(0)
			if math.Abs(x-ic[0]) > 1e-12*(1+math.Abs(ic[0])) || math.Abs(y-ic[1]) > 1e-12*(1+math.Abs(ic[1])) {
				t.Errorf("%s At(0) = (%v, %v), want (%v, %v)", c.name, x, y, ic[0], ic[1])
			}
		}
	}
}

// TestArcSatisfiesODE: the closed form satisfies x' = y and
// y' = −n·x − m·y, checked by central finite differences.
func TestArcSatisfiesODE(t *testing.T) {
	for _, c := range arcCases {
		arc, err := NewArc(c.m, c.n, c.k, 1, -0.5)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := 1e-6 * arc.TimeScale()
		for _, tt := range []float64{0.1, 0.5, 1.3} {
			tq := tt * arc.TimeScale()
			xm, ym := arc.At(tq - h)
			xp, yp := arc.At(tq + h)
			x, y := arc.At(tq)
			dx := (xp - xm) / (2 * h)
			dy := (yp - ym) / (2 * h)
			scale := 1 + math.Abs(y)
			if math.Abs(dx-y) > 1e-5*scale {
				t.Errorf("%s t=%v: x' = %v, want y = %v", c.name, tq, dx, y)
			}
			wantDy := -c.n*x - c.m*y
			if math.Abs(dy-wantDy) > 1e-4*(1+math.Abs(wantDy)) {
				t.Errorf("%s t=%v: y' = %v, want %v", c.name, tq, dy, wantDy)
			}
		}
	}
}

// TestArcMatchesIntegrator: the closed forms agree with the adaptive RK45
// integration of the same linear regime.
func TestArcMatchesIntegrator(t *testing.T) {
	for _, c := range arcCases {
		t.Run(c.name, func(t *testing.T) {
			arc, err := NewArc(c.m, c.n, c.k, -1, 0.8)
			if err != nil {
				t.Fatalf("NewArc: %v", err)
			}
			rhs := func(_ float64, y, dydt []float64) {
				dydt[0] = y[1]
				dydt[1] = -c.n*y[0] - c.m*y[1]
			}
			horizon := 3 * arc.TimeScale()
			sol, err := ode.DormandPrince(rhs, 0, []float64{-1, 0.8}, horizon, ode.DefaultOptions())
			if err != nil {
				t.Fatalf("DormandPrince: %v", err)
			}
			for i := 0; i < sol.Len(); i += 5 {
				x, y := arc.At(sol.T[i])
				if math.Abs(x-sol.Y[i][0]) > 1e-6 || math.Abs(y-sol.Y[i][1]) > 1e-6 {
					t.Fatalf("t=%v: closed form (%v, %v) vs integrator (%v, %v)",
						sol.T[i], x, y, sol.Y[i][0], sol.Y[i][1])
				}
			}
		})
	}
}

// TestFirstSwitchZero verifies that the returned switch time satisfies
// x + k·y = 0 and is strictly positive.
func TestFirstSwitchZero(t *testing.T) {
	for _, c := range arcCases {
		arc, err := NewArc(c.m, c.n, c.k, -1, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		eps := 1e-9 * arc.TimeScale()
		ts, ok := arc.FirstSwitch(eps)
		if !ok {
			continue // node/critical arcs may glide without switching
		}
		if ts <= eps {
			t.Errorf("%s: switch time %v not strictly after eps", c.name, ts)
		}
		x, y := arc.At(ts)
		if s := x + c.k*y; math.Abs(s) > 1e-8*(math.Abs(x)+math.Abs(c.k*y)+1e-12) {
			t.Errorf("%s: x+ky = %v at switch, want 0", c.name, s)
		}
	}
}

// TestFirstYZeroIsExtremum verifies y(t) = 0 at the reported time and that
// x is locally extremal there.
func TestFirstYZeroIsExtremum(t *testing.T) {
	for _, c := range arcCases {
		arc, err := NewArc(c.m, c.n, c.k, -1, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		eps := 1e-9 * arc.TimeScale()
		tz, ok := arc.FirstYZero(eps)
		if !ok {
			continue
		}
		xz, yz := arc.At(tz)
		if math.Abs(yz) > 1e-8*(1+math.Abs(xz)) {
			t.Errorf("%s: y = %v at reported zero", c.name, yz)
		}
		h := 1e-3 * arc.TimeScale()
		xm, _ := arc.At(tz - h)
		xp, _ := arc.At(tz + h)
		// Local extremum: both neighbors on the same side.
		if (xm-xz)*(xp-xz) < 0 {
			t.Errorf("%s: x not extremal at y-zero: %v | %v | %v", c.name, xm, xz, xp)
		}
	}
}

// TestSpiralRestartOnSwitchLine: an arc started exactly on the switching
// line must report the next crossing about a half-turn later, never t≈0.
func TestSpiralRestartOnSwitchLine(t *testing.T) {
	m, n, k := 1.0, 4.0, 0.5
	arc, err := NewArc(m, n, k, -1, 0) // generic start
	if err != nil {
		t.Fatal(err)
	}
	eps := 1e-9 * arc.TimeScale()
	ts, ok := arc.FirstSwitch(eps)
	if !ok {
		t.Fatal("spiral must switch")
	}
	x1, y1 := arc.At(ts)
	// Restart a new arc exactly at the crossing point.
	arc2, err := NewArc(m, n, k, x1, y1)
	if err != nil {
		t.Fatal(err)
	}
	ts2, ok := arc2.FirstSwitch(eps)
	if !ok {
		t.Fatal("restarted spiral must switch again")
	}
	halfTurn := arc2.TimeScale()
	if ts2 < 0.5*halfTurn || ts2 > 1.5*halfTurn {
		t.Errorf("restarted switch at %v, want about the half-turn %v", ts2, halfTurn)
	}
}

// TestSpiralDecay: the spiral radius contracts by exp(2πα/β) per turn.
func TestSpiralDecay(t *testing.T) {
	arc, err := NewArc(1, 4, 0.5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if arc.Kind() != ArcSpiral {
		t.Fatal("expected spiral")
	}
	alpha, beta := arc.Eigen()
	period := 2 * math.Pi / beta
	x0, y0 := arc.At(1)
	x1, y1 := arc.At(1 + period)
	r0 := math.Hypot(x0, y0)
	r1 := math.Hypot(x1, y1)
	want := math.Exp(alpha * period)
	if math.Abs(r1/r0-want) > 1e-9 {
		t.Errorf("per-turn contraction %v, want %v", r1/r0, want)
	}
}

// TestNodeEigenlineInvariance: starting on an eigenline y = λ·x stays on it.
func TestNodeEigenlineInvariance(t *testing.T) {
	arc, err := NewArc(5, 4, 0.3, 1, -1) // λ ∈ {−1, −4}; start on y = −x
	if err != nil {
		t.Fatal(err)
	}
	if arc.Kind() != ArcNode {
		t.Fatal("want node")
	}
	for _, tt := range []float64{0.3, 1, 2.5} {
		x, y := arc.At(tt)
		if math.Abs(y+x) > 1e-9*(1+math.Abs(x)) {
			t.Errorf("t=%v: left the eigenline: (%v, %v)", tt, x, y)
		}
	}
}

// TestNodeNoSwitchWhenStartedOnLine: a node arc started on the switching
// line (entering its region) must not report a residual crossing at t≈0.
func TestNodeNoSwitchWhenStartedOnLine(t *testing.T) {
	m, n, k := 5.0, 4.0, 0.3
	y0 := 2.0
	x0 := -k * y0
	arc, err := NewArc(m, n, k, x0, y0)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1e-9 * arc.TimeScale()
	if ts, ok := arc.FirstSwitch(eps); ok && ts < 100*eps {
		t.Errorf("spurious immediate switch at %v", ts)
	}
}

// TestPaperT18Formula cross-checks FirstYZero against the paper's eq. (18)
// closed form for the spiral extremum time.
func TestPaperT18Formula(t *testing.T) {
	m, n, k := 1.0, 4.0, 0.5
	alpha, beta := -m/2, math.Sqrt(4*n-m*m)/2
	for _, ic := range [][2]float64{{1, 1}, {1, -0.2}, {-1, 2}, {-1, -1}, {2, 0.5}} {
		x0, y0 := ic[0], ic[1]
		arc, err := NewArc(m, n, k, x0, y0)
		if err != nil {
			t.Fatal(err)
		}
		// Paper (18): t* = (1/β)[tan⁻¹(α/β) + tan⁻¹((y0−αx0)/(βx0))]
		// plus π/β when x0·y0 < 0.
		tStar := (math.Atan(alpha/beta) + math.Atan((y0-alpha*x0)/(beta*x0))) / beta
		if x0*y0 < 0 {
			tStar += math.Pi / beta
		}
		// Normalize into (0, π/β]: the paper's branch bookkeeping
		// assumes the principal value lands there.
		for tStar <= 0 {
			tStar += math.Pi / beta
		}
		got, ok := arc.FirstYZero(1e-12)
		if !ok {
			t.Fatalf("spiral must have y-zero")
		}
		if math.Abs(got-tStar) > 1e-9 {
			t.Errorf("ic=%v: FirstYZero = %v, paper t* = %v", ic, got, tStar)
		}
	}
}

// TestQuickSpiralClosedFormMatchesODE: property test over random spiral
// regimes and initial conditions.
func TestQuickSpiralClosedFormMatchesODE(t *testing.T) {
	prop := func(mRaw, nRaw, xRaw, yRaw uint8) bool {
		m := 0.2 + float64(mRaw%40)/10    // 0.2 .. 4.1
		n := m*m/4 + 1 + float64(nRaw%50) // ensure spiral: n > m²/4
		x0 := float64(int(xRaw)-128) / 32
		y0 := float64(int(yRaw)-128) / 32
		if x0 == 0 && y0 == 0 {
			return true
		}
		arc, err := NewArc(m, n, 0.5, x0, y0)
		if err != nil || arc.Kind() != ArcSpiral {
			return false
		}
		rhs := func(_ float64, y, dydt []float64) {
			dydt[0] = y[1]
			dydt[1] = -n*y[0] - m*y[1]
		}
		horizon := 2 * arc.TimeScale()
		sol, err := ode.DormandPrince(rhs, 0, []float64{x0, y0}, horizon, ode.DefaultOptions())
		if err != nil {
			return false
		}
		_, yEnd := sol.Last()
		x, y := arc.At(horizon)
		scale := 1 + math.Abs(x) + math.Abs(y)
		return math.Abs(x-yEnd[0]) < 1e-5*scale && math.Abs(y-yEnd[1]) < 1e-5*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNodeExtremumFormula: for node arcs, FirstYZero agrees with the
// direct solution t* = ln(−A2λ2/(A1λ1))/(λ1−λ2).
func TestQuickNodeExtremumFormula(t *testing.T) {
	prop := func(xRaw, yRaw uint8) bool {
		x0 := float64(int(xRaw)-128) / 32
		y0 := float64(int(yRaw)-128) / 32
		m, n, k := 5.0, 4.0, 0.3 // λ = −1, −4
		arc, err := NewArc(m, n, k, x0, y0)
		if err != nil {
			return false
		}
		if arc.Kind() != ArcNode {
			return false
		}
		l1, l2 := arc.Eigen()
		a1 := (l2*x0 - y0) / (l2 - l1)
		a2 := (l1*x0 - y0) / (l1 - l2)
		var want float64
		hasRoot := false
		if a1 != 0 && a2 != 0 {
			r := -a2 * l2 / (a1 * l1)
			if r > 0 {
				want = math.Log(r) / (l1 - l2)
				hasRoot = want > 1e-12
			}
		}
		got, ok := arc.FirstYZero(1e-12)
		if ok != hasRoot {
			return false
		}
		if !ok {
			return true
		}
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCriticalDegenerateForms: the critical arc with A4 = 0 is the
// straight line y = λx (paper eq. 31).
func TestCriticalDegenerateForms(t *testing.T) {
	m, n := 4.0, 4.0 // λ = −2
	lambda := -2.0
	arc, err := NewArc(m, n, 0.5, 1, lambda*1) // y0 = λ·x0 → A4 = 0
	if err != nil {
		t.Fatal(err)
	}
	if arc.Kind() != ArcCritical {
		t.Fatal("want critical")
	}
	for _, tt := range []float64{0.2, 1, 3} {
		x, y := arc.At(tt)
		if math.Abs(y-lambda*x) > 1e-10*(1+math.Abs(x)) {
			t.Errorf("t=%v: (%v, %v) off the line y=λx", tt, x, y)
		}
	}
	if _, ok := arc.FirstYZero(1e-12); ok {
		t.Error("straight-line solution must not report a y-zero")
	}
}

// TestCriticalExtremumDirect: the critical-arc extremum matches the direct
// derivation x(t*) = −(A4/λ)·e^{λt*} with t* = −(A3λ+A4)/(A4λ).
// (The paper's eq. (34) omits a factor of λ in the exponent; the direct
// form is verified against the trajectory itself.)
func TestCriticalExtremumDirect(t *testing.T) {
	m, n := 4.0, 4.0
	lambda := -2.0
	x0, y0 := -1.0, 5.0
	arc, err := NewArc(m, n, 0.5, x0, y0)
	if err != nil {
		t.Fatal(err)
	}
	a3 := x0
	a4 := y0 - lambda*x0
	tStar := -(a3*lambda + a4) / (a4 * lambda)
	wantX := -(a4 / lambda) * math.Exp(lambda*tStar)
	got, ok := arc.FirstYZero(1e-12)
	if !ok {
		t.Fatal("expected a y-zero")
	}
	if math.Abs(got-tStar) > 1e-12 {
		t.Errorf("t* = %v, want %v", got, tStar)
	}
	x, _ := arc.At(got)
	if math.Abs(x-wantX) > 1e-12*(1+math.Abs(wantX)) {
		t.Errorf("x(t*) = %v, want %v", x, wantX)
	}
}

func TestArcKindStrings(t *testing.T) {
	for _, k := range []ArcKind{ArcSpiral, ArcNode, ArcCritical, ArcKind(0)} {
		if k.String() == "" {
			t.Errorf("empty String for %d", int(k))
		}
	}
}

// TestRateMonotoneAlongArcs pins why a checked solve needs no rate knot
// between an arc's ends: every regime has m = k·n, so
// y′ = −n·x − m·y = −n·(x + k·y) vanishes only on the switching line,
// and y rises monotonically through every increase arc and falls
// through every decrease arc. The rate extremes are the arc's end knots.
func TestRateMonotoneAlongArcs(t *testing.T) {
	base := FigureExample()
	giCrit := base.AThreshold() / (base.Ru * float64(base.N))
	for _, g := range []struct{ gi, gd float64 }{
		{0.05, 0.001}, {8, 0.4}, {giCrit, 0.01}, {1, base.BThreshold()}, {40 * giCrit, 20 * base.BThreshold()},
	} {
		p := base
		p.Gi, p.Gd = g.gi, g.gd
		for _, r := range []Region{Increase, Decrease} {
			for i := 0; i < 16; i++ {
				// Entry states on an ellipse with semi-axes q0 and q0/k, which
				// the switching line x + k·y = 0 cuts in half; each region
				// keeps the states on its side.
				ang := 2 * math.Pi * float64(i) / 16
				x0, y0 := p.Q0*math.Cos(ang), p.Q0/p.K()*math.Sin(ang)
				if s := x0 + p.K()*y0; s == 0 || (s < 0) != (r == Increase) {
					continue
				}
				var st Step
				err := ArcStepper{}.Step(&Regime{
					Region: r, Linear: p.RegionLinear(r), X0: x0, Y0: y0, K: p.K(),
					TolX: 1e-3 * p.Q0, TolY: 1e-3 * p.C,
				}, &st)
				if err != nil {
					t.Fatal(err)
				}
				dir := 1.0
				if r == Decrease {
					dir = -1
				}
				prev := y0
				for j := 1; j <= 256; j++ {
					_, y := st.Arc.At(st.End * float64(j) / 256)
					if dir*(y-prev) < -1e-9*p.C {
						t.Fatalf("gi=%v gd=%v %v arc from (%v, %v): y turns at sample %d (%v after %v)",
							g.gi, g.gd, r, x0, y0, j, y, prev)
					}
					prev = y
				}
			}
		}
	}
}
