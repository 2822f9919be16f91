package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// sameBits reports whether a and b are the same float64, bit for bit;
// any two NaNs count as the same.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzArcAt holds Arc.At, which evaluates each exponential once for both
// components, to the components evaluated one at a time: across spiral,
// node and critical arcs, large times and large phases, At(t) must equal
// (x.at(t), y.at(t)) bit for bit.
func FuzzArcAt(f *testing.F) {
	for _, c := range arcCases {
		for _, tt := range []float64{0, 1e-9, 0.37, 3, 1e3, 1e7} {
			f.Add(c.m, c.n, c.k, -1.0, 0.8, tt)
		}
	}
	// Large phase: many spiral turns before t, and a start whose phase
	// sits near ±π.
	f.Add(0.001, 1e6, 0.01, -1.0, 1e-9, 1e5)
	f.Add(0.1, 100.0, 0.01, -2.5e6, -3e-7, 4e4)
	// The figure example's regimes from the canonical start.
	p := FigureExample()
	for _, r := range []Region{Increase, Decrease} {
		lin := p.RegionLinear(r)
		f.Add(lin.M, lin.N, p.K(), -p.Q0, 0.0, 1e-4)
	}
	// Inside the near-degenerate band, and overflowing exponentials.
	m := degenerateRegimeM()
	f.Add(m, degenerateRegimeN(1e-15), 2/m, 1.0, -3.0, 2e-3)
	f.Add(5.0, 4.0, 0.3, 1.0, 0.5, -1e3)
	f.Fuzz(func(t *testing.T, m, n, k, x0, y0, at float64) {
		arc, err := NewArc(m, n, k, x0, y0)
		if err != nil {
			return
		}
		x, y := arc.At(at)
		wx, wy := arc.x.at(arc.kind, at), arc.y.at(arc.kind, at)
		if !sameBits(x, wx) || !sameBits(y, wy) {
			t.Fatalf("%v arc (m=%v n=%v k=%v from %v, %v): At(%v) = (%v, %v), components (%v, %v)",
				arc.kind, m, n, k, x0, y0, at, x, y, wx, wy)
		}
	})
}

// TestEntryKnotReduction holds form.atZero, the entry knot locateWall
// uses, to at(kind, 0) bit for bit (sameBits: a NaN's payload depends
// on the operand order the compiler picks, and every comparison the
// knot meets treats NaNs alike): random forms of every kind whose
// amplitudes, rates and phases mix ordinary values with ±0, subnormals,
// huge values and non-finite rates.
func TestEntryKnotReduction(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 25))
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Pi / 2, -math.Pi,
	}
	pick := func() float64 {
		if r.IntN(4) == 0 {
			return special[r.IntN(len(special))]
		}
		return (r.Float64()*2 - 1) * math.Pow(10, float64(r.IntN(16)-8))
	}
	for _, kind := range []ArcKind{ArcSpiral, ArcNode, ArcCritical, 0} {
		for i := 0; i < 1<<16; i++ {
			f := form{pick(), pick(), pick(), pick()}
			got, want := f.atZero(kind), f.at(kind, 0)
			if !sameBits(got, want) {
				t.Fatalf("kind %d, form %+v: atZero = %v (%#x), at(0) = %v (%#x)",
					kind, f, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// bisectWall is plain bisection for x(t) = c on [lo, hi], where x(lo)
// is inside the wall and x(hi) at or past it: the 80-step wall
// refinement the stepper once ran. It is the oracle wallTime is held
// to, within the certified band. It also returns how many times it
// evaluated x.
func bisectWall(a *Arc, lo, hi, c float64, upper bool) (float64, int) {
	evals := 0
	for ; evals < 80; evals++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		x := a.x.at(a.kind, mid)
		if (upper && x < c) || (!upper && x > c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, evals
}

// recomputedWallHit is locateWall as it was before the stepper passed
// in its extremum and end values: every knot evaluated from the x
// component. It is the oracle for the reused-knot version.
func recomputedWallHit(a *Arc, tz float64, hasZ bool, tEnd, xLo, xHi float64) (wallBracket, Outcome) {
	type knot struct{ t, x float64 }
	var knots [3]knot
	knots[0] = knot{0, a.x.at(a.kind, 0)}
	n := 1
	if hasZ {
		knots[n] = knot{tz, a.x.at(a.kind, tz)}
		n++
	}
	knots[n] = knot{tEnd, a.x.at(a.kind, tEnd)}
	n++
	for i := 1; i < n; i++ {
		ka, kb := knots[i-1], knots[i]
		switch {
		case kb.x >= xHi && ka.x < xHi:
			return wallBracket{ka.t, kb.t, ka.x, kb.x, xHi, true}, OutcomeOverflow
		case kb.x <= xLo && ka.x > xLo:
			return wallBracket{ka.t, kb.t, ka.x, kb.x, xLo, false}, OutcomeUnderflow
		case i == 1 && (ka.x >= xHi && kb.x > ka.x):
			return wallBracket{}, OutcomeOverflow
		case i == 1 && (ka.x <= xLo && kb.x < ka.x):
			return wallBracket{}, OutcomeUnderflow
		}
	}
	return wallBracket{}, 0
}

// TestReusedKnotWallHit: ArcStepper hands firstWallHit the extremum and
// end values it evaluated with At instead of letting it evaluate x there
// again; the outcome of every step must be the recomputing version's,
// bit for bit, and its time must lie within the certified band around
// plain bisection of the recomputed bracket (checkWallTime). A crossing
// must stop the step on the wall exactly, an entry hit at the entry
// knot. The regimes span all three families, both regions and
// entry states all around the equilibrium (on a wall too). The walls
// range from the physical strip to pairs that need not straddle the
// equilibrium, so hits land at the entry, on the piece before the
// extremum, on the piece after it and on arcs without one.
func TestReusedKnotWallHit(t *testing.T) {
	base := FigureExample()
	giCrit := base.AThreshold() / (base.Ru * float64(base.N))
	q0 := base.Q0
	walls := [][2]float64{{-1, 0.2}, {-1, 1}, {-1, 4}, {-0.3, 0.05}, {-0.05, 0.3}, {0.1, 0.6}, {-0.8, -0.2}}
	hits := map[string]int{}
	for _, gain := range []struct{ gi, gd float64 }{
		{0.05, 0.001}, {1, 0.05}, {8, 0.4}, {giCrit, 0.01}, {1, base.BThreshold()}, {40 * giCrit, 20 * base.BThreshold()},
	} {
		p := base
		p.Gi, p.Gd = gain.gi, gain.gd
		for _, w := range walls {
			xLo, xHi := w[0]*q0, w[1]*q0
			for _, r := range []Region{Increase, Decrease} {
				for i := 0; i < 24; i++ {
					ang := 2 * math.Pi * float64(i) / 24
					for _, rad := range []float64{0.25, 0.5, 1, 1.5} {
						x0, y0 := rad*q0*math.Cos(ang), rad*q0/p.K()*math.Sin(ang)
						if i%6 == 0 {
							// Rest on a wall, as the canonical start does.
							x0 = xLo
							if i%12 == 6 {
								x0 = xHi
							}
						}
						var st Step
						g := Regime{
							Region: r, Linear: p.RegionLinear(r), X0: x0, Y0: y0, K: p.K(),
							TolX: 1e-3 * q0, TolY: 1e-3 * p.C,
							XLo: xLo, XHi: xHi, Buffer: true,
						}
						if err := (ArcStepper{}).Step(&g, &st); err != nil {
							t.Fatal(err)
						}
						wb, want := recomputedWallHit(&st.Arc, st.ExtT, st.Extremum, st.End, xLo, xHi)
						if st.Wall != want || (st.WallT == 0) != (wb.hi == 0) {
							t.Fatalf("gi=%v gd=%v walls %v %v from (%v, %v): wall %v at %v, recomputed %v on %+v",
								gain.gi, gain.gd, w, r, x0, y0, st.Wall, st.WallT, want, wb)
						}
						wantX, _ := st.Arc.At(st.End)
						switch {
						case st.Wall == 0:
						case st.WallT == 0:
							wantX, _ = st.Arc.At(0)
						default:
							wantX = wb.c
							checkWallTime(t, wallCase{st.Arc, wb, "reused knot"}, st.WallT)
						}
						if !sameBits(st.X, wantX) {
							t.Fatalf("gi=%v gd=%v walls %v %v from (%v, %v): wall %v at %v stops at x = %v, want %v",
								gain.gi, gain.gd, w, r, x0, y0, st.Wall, st.WallT, st.X, wantX)
						}
						switch {
						case st.Wall == 0:
							hits["none"]++
						case st.WallT == 0:
							hits["entry"]++
						case !st.Extremum:
							hits["no extremum"]++
						case st.WallT <= st.ExtT:
							hits["before extremum"]++
						default:
							hits["after extremum"]++
						}
					}
				}
			}
		}
	}
	t.Logf("steps by wall hit: %v", hits)
	for _, k := range []string{"none", "entry", "no extremum", "before extremum", "after extremum"} {
		if hits[k] == 0 {
			t.Errorf("no step hits a wall %s; the oracle checks too little (%v)", k, hits)
		}
	}
}

// wallCase is one random arc with a wall crossing on it, as the stepper
// would hand it to refineWall, and its class for coverage tallies.
type wallCase struct {
	arc   Arc
	w     wallBracket
	class string
}

// newWallCase builds the arc (m, n, k) from (x0, y0), ends it like
// ArcStepper (at the first switch, else at span time scales) and puts
// one wall at the arc's value at time fraction frac of its end, nudged
// by rel: the ceiling when upper, else the floor. It reports false when
// the arc is invalid or reaches the wall at entry or not at all.
func newWallCase(m, n, k, x0, y0, span, frac, rel float64, upper bool) (wallCase, bool) {
	arc, err := NewArc(m, n, k, x0, y0)
	if err != nil {
		return wallCase{}, false
	}
	eps := 1e-9 * arc.TimeScale()
	end, ok := arc.FirstSwitch(eps)
	if !ok {
		end = span * arc.TimeScale()
	}
	if !(end > 0) || math.IsInf(end, 0) {
		return wallCase{}, false
	}
	tz, hasZ := arc.FirstYZero(eps)
	var xz float64
	if hasZ = hasZ && tz < end; hasZ {
		xz, _ = arc.At(tz)
	} else {
		tz = 0
	}
	xEnd, _ := arc.At(end)
	c := arc.x.at(arc.kind, frac*end)
	c += rel * math.Abs(c)
	xLo, xHi := math.Inf(-1), c
	if !upper {
		xLo, xHi = c, math.Inf(1)
	}
	w, out := arc.locateWall(tz, xz, hasZ, end, xEnd, xLo, xHi)
	if out == 0 || w.hi == 0 {
		return wallCase{}, false
	}
	class := fmt.Sprintf("%v/ceiling", arc.kind)
	if !upper {
		class = fmt.Sprintf("%v/floor", arc.kind)
	}
	if w.lo > 0 {
		class += "/after-extremum"
	}
	return wallCase{arc, w, class}, true
}

// randomWallCase draws arcs of every family until one crosses its wall.
// Regimes span ten decades of time scale; critical arcs sit anywhere
// in the ArcDiscTol band, and spirals and nodes reach to just outside
// it. Walls sit exactly on an evaluated x value or a few ulps off it.
func randomWallCase(r *rand.Rand) wallCase {
	for {
		m := math.Exp(r.Float64()*20 - 10)
		var d float64
		switch r.IntN(3) {
		case 0: // spiral
			d = math.Pow(10, r.Float64()*16-12.9)
		case 1: // node, n = m²/4·(1−δ) with δ < 1
			d = -math.Pow(10, -r.Float64()*12.9)
		default: // inside the repeated-eigenvalue band
			d = (2*r.Float64() - 1) * ArcDiscTol
		}
		n := m * m / 4 * (1 + d)
		k := m / n
		if r.IntN(2) == 0 {
			k *= math.Exp(r.Float64()*4 - 2)
		}
		scale := math.Pow(10, r.Float64()*8-2)
		x0 := (2*r.Float64() - 1) * scale
		y0 := (2*r.Float64() - 1) * scale * m * math.Exp(r.Float64()*6-3)
		rel := 0.0
		if r.IntN(2) == 0 {
			rel = float64(r.IntN(9)-4) * 0x1p-52
		}
		if wc, ok := newWallCase(m, n, k, x0, y0, 0.5+4*r.Float64(), r.Float64(), rel, r.IntN(2) == 0); ok {
			return wc
		}
	}
}

// wallBand returns a band [zlo, zhi] inside the bracket w around t,
// plain bisection's wall time, such that the computed x is certainly
// inside the wall at every t′ ≤ zlo and certainly at or past it at
// every t′ ≥ zhi. Any solve that reads the computed x therefore has its
// crossing in the band.
//
// E = x.errBound over the bracket bounds |computed − exact x|. With the
// wall crossed upward (the floor is mirrored by s = −1), exact x rises
// across the bracket except, at worst, within roundoff of a knot that is
// an extremum; its minimum and maximum over any sub-interval therefore
// sit at the sub-interval's ends. So if the computed x at the inside
// knot and at zlo is below c − 2E, the exact x on [lo, zlo] is below
// c − E and the computed x below c. The outside side mirrors it with
// x ≥ c + 2E at zhi and at the outside knot.
//
// The half-width starts at four times E/|y(t)|. A side that fails
// certification widens 16-fold, twice; after that, or when any value is
// not finite, the bracket end stands in for it (fallback).
func wallBand(a *Arc, w *wallBracket, t float64) (zlo, zhi float64, fallback bool) {
	zlo, zhi = w.lo, w.hi
	s := 1.0
	if !w.upper {
		s = -1
	}
	e := a.x.errBound(a.kind, w.lo, w.hi)
	_, y := a.At(t)
	h := 4 * e / math.Abs(y)
	inOK := s*w.in+2*e < s*w.c
	outOK := s*w.out-2*e >= s*w.c
	if !finite(h) || !inOK && !outOK {
		return zlo, zhi, true
	}
	// side tries the band end t+h, t+16h and t+256h (h < 0 for the
	// inside end), setting *z to the first it certifies. An end beyond
	// the bracket is not tried: the bracket end already stands there.
	side := func(h float64, z *float64) bool {
		for i := 0; i < 3; i, h = i+1, 16*h {
			zt := t + h
			if h < 0 && zt <= w.lo || h > 0 && zt >= w.hi {
				return true
			}
			x := s * a.x.at(a.kind, zt)
			if h < 0 && x+2*e < s*w.c || h > 0 && x-2*e >= s*w.c {
				*z = zt
				return true
			}
		}
		return false
	}
	inOK = inOK && side(-h, &zlo)
	outOK = outOK && side(h, &zhi)
	return zlo, zhi, !inOK || !outOK
}

// checkWallTime fails t unless got, the wall time the stepper reported
// for wc, lies strictly after the bracket's inside knot and inside the
// certified band around plain bisection's time (wallBand). It returns
// whether a side of the band fell back to the bracket end.
func checkWallTime(t testing.TB, wc wallCase, got float64) (fallback bool) {
	w := &wc.w
	want, _ := bisectWall(&wc.arc, w.lo, w.hi, w.c, w.upper)
	zlo, zhi, fallback := wallBand(&wc.arc, w, want)
	if !(got > w.lo && got >= zlo && got <= zhi) {
		t.Fatalf("%s arc %+v bracket %+v: wall time %v, bisection %v, band [%v, %v] (fallback %v)",
			wc.class, wc.arc, *w, got, want, zlo, zhi, fallback)
	}
	return fallback
}

// TestRefineWallMatchesBisection holds the wall time to plain
// bisection, within the certified band, over 2²⁰ seeded random
// crossings of every arc family, both walls, and brackets that start at
// the entry or after an extremum. Fewer than 5% of crossings may leave
// a side of the band uncertified (that side is then bounded by the
// bracket alone).
func TestRefineWallMatchesBisection(t *testing.T) {
	cases := 1 << 20
	if testing.Short() || raceEnabled {
		cases = 1 << 14
	}
	r := rand.New(rand.NewPCG(23, 1))
	seen := map[string]int{}
	fallbacks, evals := 0, 0
	for i := 0; i < cases; i++ {
		wc := randomWallCase(r)
		got, n := wc.arc.wallTime(&wc.w)
		if checkWallTime(t, wc, got) {
			fallbacks++
		}
		evals += n
		seen[wc.class]++
	}
	t.Logf("%d crossings, %.2f x evaluations each, %d with a fallback side: %v",
		cases, float64(evals)/float64(cases), fallbacks, seen)
	if share := float64(fallbacks) / float64(cases); share >= 0.05 {
		t.Errorf("fallback share %.3f, want < 0.05", share)
	}
	for _, kind := range []ArcKind{ArcSpiral, ArcNode, ArcCritical} {
		for _, wall := range []string{"ceiling", "floor"} {
			for _, from := range []string{"", "/after-extremum"} {
				if c := fmt.Sprintf("%v/%s%s", kind, wall, from); seen[c] == 0 {
					t.Errorf("no %s crossing drawn; the oracle checks too little", c)
				}
			}
		}
	}
}

// FuzzRefineWall holds the Newton wall time to plain bisection, within
// the certified band, on fuzzed arcs and walls: the regime (m, n, k),
// the entry state, where on the arc the wall sits (frac of the arc's
// end, nudged by rel·|c|) and which wall.
func FuzzRefineWall(f *testing.F) {
	for _, c := range arcCases {
		for _, frac := range []float64{0.01, 0.3, 0.77, 0.999} {
			f.Add(c.m, c.n, c.k, -1.0, 0.8, 3.0, frac, 0.0, true)
			f.Add(c.m, c.n, c.k, 1.0, -0.8, 3.0, frac, 1e-16, false)
		}
	}
	m := degenerateRegimeM()
	f.Add(m, degenerateRegimeN(1e-15), 2/m, 1.0, -3.0, 2.0, 0.4, 0.0, false)
	f.Add(m, degenerateRegimeN(-5e-14), 2/m, -1.0, 3.0, 2.0, 0.6, -2e-16, true)
	p := FigureExample()
	for _, reg := range []Region{Increase, Decrease} {
		lin := p.RegionLinear(reg)
		f.Add(lin.M, lin.N, p.K(), -p.Q0, 0.0, 3.0, 0.5, 0.0, true)
		f.Add(lin.M, lin.N, p.K(), 0.0, -p.C, 3.0, 0.2, 0.0, false)
	}
	f.Fuzz(func(t *testing.T, m, n, k, x0, y0, span, frac, rel float64, upper bool) {
		if !(frac > 0 && frac < 1) || !(span > 0 && span < 100) || !(math.Abs(rel) < 1e-6) {
			return
		}
		if wc, ok := newWallCase(m, n, k, x0, y0, span, frac, rel, upper); ok {
			got, _ := wc.arc.wallTime(&wc.w)
			checkWallTime(t, wc, got)
		}
	})
}

// wallHeavyGrid is the gain plane where the buffer decides most rows:
// bcnsweep's default 16×16 axes (Gi 0.05–12.8, Gd 1/1024–0.5) with the
// buffer at 1.5·q0, where 159 of 256 points overflow.
func wallHeavyGrid() []Params {
	base := FigureExample()
	base.B = 1.5 * base.Q0
	geom := func(lo, hi float64, i int) float64 { return lo * math.Pow(hi/lo, float64(i)/15) }
	var ps []Params
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			p := base
			p.Gi, p.Gd = geom(0.05, 12.8, i), geom(1.0/1024, 0.5, j)
			ps = append(ps, p)
		}
	}
	return ps
}

// wallCapture is a Stepper that steps like ArcStepper and keeps every
// wall crossing's arc and bracket.
type wallCapture struct{ hits []wallCase }

func (c *wallCapture) Step(g *Regime, st *Step) error {
	if err := (ArcStepper{}).Step(g, st); err != nil {
		return err
	}
	if st.Wall != 0 && st.WallT > 0 {
		xEnd, _ := st.Arc.At(st.End)
		w, _ := st.Arc.locateWall(st.ExtT, st.ExtX, st.Extremum, st.End, xEnd, g.XLo, g.XHi)
		c.hits = append(c.hits, wallCase{st.Arc, w, st.Wall.String()})
	}
	return nil
}

type nopObserver struct{}

func (nopObserver) Arc(Region, float64, float64, float64, *Step) error { return nil }
func (nopObserver) Crossing(float64, float64, float64, Region)         {}
func (nopObserver) Finish(Region, float64, float64, float64) error     { return nil }
func (nopObserver) StepFailed(float64, error) error                    { return nil }

// wallHeavyHits solves every point of wallHeavyGrid from the canonical
// start and returns the wall crossings met on the way.
func wallHeavyHits(tb testing.TB) []wallCase {
	tb.Helper()
	var (
		z   Stitcher
		cap wallCapture
	)
	for _, p := range wallHeavyGrid() {
		if _, err := z.Stitch(&p, StitchOptions{}, 0, -p.Q0, 0, &cap, nopObserver{}); err != nil {
			tb.Fatal(err)
		}
	}
	if len(cap.hits) == 0 {
		tb.Fatal("the wall-heavy grid crossed no wall")
	}
	return cap.hits
}

// TestWallBandEfficiency catches a wall solve that silently degrades:
// on the wall-heavy grid, fewer than 1% of crossings may leave a side
// of the band uncertified (the reported time is then bounded by the
// bracket alone), and the solve may take at most 5.5 x evaluations per
// crossing on average: Newton's steps, then one evaluation that finds x
// within roundoff of the wall.
func TestWallBandEfficiency(t *testing.T) {
	hits := wallHeavyHits(t)
	var evals, fallbacks int
	for _, wc := range hits {
		got, n := wc.arc.wallTime(&wc.w)
		if checkWallTime(t, wc, got) {
			fallbacks++
		}
		evals += n
	}
	n := float64(len(hits))
	t.Logf("%d crossings: %.2f x evaluations per crossing; %d fallbacks", len(hits), float64(evals)/n, fallbacks)
	if share := float64(fallbacks) / n; share >= 0.01 {
		t.Errorf("fallback share %.3f, want < 0.01", share)
	}
	if per := float64(evals) / n; per > 5.5 {
		t.Errorf("%.2f x evaluations per crossing, want <= 5.5", per)
	}
}

// BenchmarkWallRefine is the core.wall_refine rung: the wall crossings
// of the wall-heavy grid solved by wallTime (newton) and by plain
// bisection (bisect), reported per crossing with the x evaluations
// each takes, counted outside the timed loop.
func BenchmarkWallRefine(b *testing.B) {
	hits := wallHeavyHits(b)
	for _, bc := range []struct {
		name  string
		solve func(wc *wallCase) (float64, int)
	}{
		{"newton", func(wc *wallCase) (float64, int) { return wc.arc.wallTime(&wc.w) }},
		{"bisect", func(wc *wallCase) (float64, int) {
			return bisectWall(&wc.arc, wc.w.lo, wc.w.hi, wc.w.c, wc.w.upper)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			evals := 0
			for k := range hits {
				_, n := bc.solve(&hits[k])
				evals += n
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range hits {
					t, _ := bc.solve(&hits[k])
					benchWallT += t
				}
			}
			n := float64(len(hits))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/hit")
			b.ReportMetric(float64(evals)/n, "evals/hit")
		})
	}
}

var benchWallT float64

// shapeCheck is a Stepper that steps like ArcStepper, through the
// Stitcher's memoised regime shape, and holds every arc to the one
// NewArc builds from scratch for the same regime and entry state.
type shapeCheck struct {
	t     *testing.T
	steps int
}

func (c *shapeCheck) Step(g *Regime, st *Step) error {
	if err := (ArcStepper{}).Step(g, st); err != nil {
		return err
	}
	want, err := NewArc(g.M, g.N, g.K, g.X0, g.Y0)
	if err != nil || st.Arc != want {
		c.t.Fatalf("regime (%v, %v, %v) from (%v, %v): memoised arc %+v, NewArc %+v (%v)", g.M, g.N, g.K, g.X0, g.Y0, st.Arc, want, err)
	}
	c.steps++
	return nil
}

// TestShapeMemoMatchesNewArc: one Stitcher reused across the points of
// two grids, whose regimes change from point to point and repeat along
// each row, must build every arc exactly as NewArc does; a stale shape
// would build the previous regime's arc.
func TestShapeMemoMatchesNewArc(t *testing.T) {
	var z Stitcher
	c := &shapeCheck{t: t}
	points := wallHeavyGrid()
	fig := FigureExample()
	giCrit := fig.AThreshold() / (fig.Ru * float64(fig.N))
	for _, p := range wallHeavyGrid() {
		// The same axes scaled past the critical gains: node regimes,
		// and the repeated eigenvalue where an axis starts.
		p.Gi *= giCrit / 0.05
		p.Gd *= fig.BThreshold() / (1.0 / 1024)
		points = append(points, p)
	}
	kinds := map[CaseKind]int{}
	for _, p := range points {
		if _, err := z.Stitch(&p, StitchOptions{}, 0, -p.Q0, 0, c, nopObserver{}); err != nil {
			t.Fatal(err)
		}
		kinds[p.Case()]++
	}
	t.Logf("%d arcs over %d points, cases %v", c.steps, len(points), kinds)
	if len(kinds) < 3 {
		t.Errorf("only cases %v; the grids exercise too few regime families", kinds)
	}
}
