package core

import (
	"math"
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

// recomputedWallHit is firstWallHit as it was before the stepper passed
// in its extremum and end values: every knot evaluated from the x
// component. It is the oracle for the reused-knot version.
func recomputedWallHit(a *Arc, tz float64, hasZ bool, tEnd, xLo, xHi float64) (float64, Outcome) {
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
			return a.refineWall(ka.t, kb.t, xHi, true), OutcomeOverflow
		case kb.x <= xLo && ka.x > xLo:
			return a.refineWall(ka.t, kb.t, xLo, false), OutcomeUnderflow
		case i == 1 && (ka.x >= xHi && kb.x > ka.x):
			return ka.t, OutcomeOverflow
		case i == 1 && (ka.x <= xLo && kb.x < ka.x):
			return ka.t, OutcomeUnderflow
		}
	}
	return 0, 0
}

// TestReusedKnotWallHit: ArcStepper hands firstWallHit the extremum and
// end values it evaluated with At instead of letting it evaluate x there
// again; the (time, outcome) of every step must be the recomputing
// version's. The regimes span all three families, both regions and
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
						wantT, want := recomputedWallHit(&st.Arc, st.ExtT, st.Extremum, st.End, xLo, xHi)
						if st.Wall != want || !sameBits(st.WallT, wantT) {
							t.Fatalf("gi=%v gd=%v walls %v %v from (%v, %v): wall %v at %v, recomputed %v at %v",
								gain.gi, gain.gd, w, r, x0, y0, st.Wall, st.WallT, want, wantT)
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
