package analytic

import (
	"math"
	"reflect"
	"testing"

	"bcnphase/internal/core"
)

// solve runs s.Solve on copies of p and opts and returns the result by
// value, the form most tests read.
func solve(s *Solver, p core.Params, opts Options) (Result, error) {
	var res Result
	err := s.Solve(&p, &opts, &res)
	return res, err
}

// gridParams spans the gain plane used by the sweeps: a log-spaced
// Gi × Gd grid over the paper's example fabric, hitting all three arc
// kinds and every outcome class.
func gridParams(nGi, nGd int) []core.Params {
	base := core.PaperExample()
	var out []core.Params
	for i := 0; i < nGi; i++ {
		gi := 0.05 * math.Pow(400, float64(i)/float64(nGi-1)) // 0.05 … 20
		for j := 0; j < nGd; j++ {
			gd := 0.2 / 256 * math.Pow(512, float64(j)/float64(nGd-1)) // ~0.00078 … 0.4
			p := base
			p.Gi, p.Gd = gi, gd
			if p.Validate() != nil {
				continue
			}
			out = append(out, p)
		}
	}
	return out
}

// TestSolveMatchesCoreAcrossGrid is the engine's central contract: for
// every grid point, the closed-form path reproduces core.Solve's
// classification bit for bit — the two run the same arithmetic in the
// same order — while the exact extremes dominate the sampled ones.
func TestSolveMatchesCoreAcrossGrid(t *testing.T) {
	s := NewSolver()
	for _, ignoreBuffer := range []bool{false, true} {
		points := 0
		for _, p := range gridParams(13, 13) {
			tr, err := core.Solve(p, core.SolveOptions{IgnoreBuffer: ignoreBuffer})
			if err != nil {
				t.Fatalf("core.Solve(%+v): %v", p, err)
			}
			res, err := solve(s, p, Options{IgnoreBuffer: ignoreBuffer})
			if err != nil {
				t.Fatalf("analytic.Solve(%+v): %v", p, err)
			}
			points++
			id := map[bool]string{false: "buffered", true: "unbuffered"}[ignoreBuffer]
			if res.Path != PathAnalytic {
				t.Errorf("%s gi=%g gd=%g: path %v, want analytic", id, p.Gi, p.Gd, res.Path)
			}
			if res.Outcome != tr.Outcome {
				t.Errorf("%s gi=%g gd=%g: outcome %v, core %v", id, p.Gi, p.Gd, res.Outcome, tr.Outcome)
				continue
			}
			if res.Crossings != len(tr.Crossings) {
				t.Errorf("%s gi=%g gd=%g: crossings %d, core %d", id, p.Gi, p.Gd, res.Crossings, len(tr.Crossings))
			}
			if res.Arcs != len(tr.Segments) {
				t.Errorf("%s gi=%g gd=%g: arcs %d, core %d", id, p.Gi, p.Gd, res.Arcs, len(tr.Segments))
			}
			if res.Extrema != len(tr.Extrema) {
				t.Errorf("%s gi=%g gd=%g: extrema %d, core %d", id, p.Gi, p.Gd, res.Extrema, len(tr.Extrema))
			}
			if res.Rho != tr.Rho {
				t.Errorf("%s gi=%g gd=%g: rho %v, core %v (want bit-identical)", id, p.Gi, p.Gd, res.Rho, tr.Rho)
			}
			if res.EndT != tr.EndT || res.EndX != tr.EndX || res.EndY != tr.EndY {
				t.Errorf("%s gi=%g gd=%g: end (%v,%v,%v), core (%v,%v,%v)",
					id, p.Gi, p.Gd, res.EndT, res.EndX, res.EndY, tr.EndT, tr.EndX, tr.EndY)
			}
			// Exact extrema dominate the 64-sample polyline, and the
			// polyline can undershoot a spiral peak by at most
			// ~(π/64)²/2 ≈ 0.13% of the amplitude.
			slackHi := 2e-3*(math.Abs(res.MaxX)+p.Q0) + 1e-9
			if res.MaxX < tr.MaxX-1e-9 || res.MaxX > tr.MaxX+slackHi {
				t.Errorf("%s gi=%g gd=%g: MaxX %v vs core sampled %v", id, p.Gi, p.Gd, res.MaxX, tr.MaxX)
			}
			slackLo := 2e-3*(math.Abs(res.MinX)+p.Q0) + 1e-9
			if res.MinX > tr.MinX+1e-9 || res.MinX < tr.MinX-slackLo {
				// Exact MinX sits at or below the sampled one (the t = 0
				// launch knot counts here, see extremes), and the polyline
				// can only overshoot by its sampling error.
				t.Errorf("%s gi=%g gd=%g: MinX %v vs core sampled %v", id, p.Gi, p.Gd, res.MinX, tr.MinX)
			}
			// First-extremum knots agree with core's extremum list.
			if len(tr.Extrema) > 0 && !ignoreBuffer {
				first := tr.Extrema[0]
				var gotT, gotX float64
				if first.Max {
					gotT, gotX = res.FirstMaxT, res.FirstMaxX
				} else {
					gotT, gotX = res.FirstMinT, res.FirstMinX
				}
				// Overflow/underflow runs may truncate before the
				// (hypothetical) extremum core tallies; only compare when
				// the engine traversed it.
				if !math.IsNaN(gotT) && (gotT != first.T || gotX != first.X) {
					t.Errorf("%s gi=%g gd=%g: first extremum (%v,%v), core (%v,%v)",
						id, p.Gi, p.Gd, gotT, gotX, first.T, first.X)
				}
			}
		}
		if points < 100 {
			t.Fatalf("grid produced only %d valid points", points)
		}
	}
}

// TestRK45AgreesWithClosed pins the numerical baseline to the closed
// forms on representative stable, cyclic and overflowing points.
func TestRK45AgreesWithClosed(t *testing.T) {
	base := core.PaperExample()
	cases := []struct {
		name   string
		gi, gd float64
	}{
		{"paper-default", base.Gi, base.Gd},
		{"deep-stable", 0.1, 0.002},
		{"aggressive", 8, 0.25},
		{"slow-increase", 0.05, 0.02},
	}
	s := NewSolver()
	for _, tc := range cases {
		p := base
		p.Gi, p.Gd = tc.gi, tc.gd
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		closed, err := solve(s, p, Options{})
		if err != nil {
			t.Fatalf("%s closed: %v", tc.name, err)
		}
		rk, err := solve(s, p, Options{Mode: ModeOff})
		if err != nil {
			t.Fatalf("%s rk45: %v", tc.name, err)
		}
		if rk.Path != PathRK45 || closed.Path != PathAnalytic {
			t.Fatalf("%s: paths %v/%v", tc.name, closed.Path, rk.Path)
		}
		if rk.Outcome != closed.Outcome {
			t.Errorf("%s: outcome rk=%v closed=%v", tc.name, rk.Outcome, closed.Outcome)
		}
		if rk.Crossings != closed.Crossings {
			t.Errorf("%s: crossings rk=%d closed=%d", tc.name, rk.Crossings, closed.Crossings)
		}
		relTol := func(scale float64) float64 { return 1e-6 * scale }
		if d := math.Abs(rk.MaxX - closed.MaxX); d > relTol(math.Abs(closed.MaxX)+p.Q0) {
			t.Errorf("%s: MaxX rk=%v closed=%v (Δ=%g)", tc.name, rk.MaxX, closed.MaxX, d)
		}
		if d := math.Abs(rk.MinX - closed.MinX); d > relTol(math.Abs(closed.MinX)+p.Q0) {
			t.Errorf("%s: MinX rk=%v closed=%v (Δ=%g)", tc.name, rk.MinX, closed.MinX, d)
		}
		if closed.Rho > 0 {
			if d := math.Abs(rk.Rho - closed.Rho); d > 1e-6*closed.Rho {
				t.Errorf("%s: rho rk=%v closed=%v", tc.name, rk.Rho, closed.Rho)
			}
		}
	}
}

// TestOnCrossingHook checks the crossing observer sees the same
// junctions core.Solve records.
func TestOnCrossingHook(t *testing.T) {
	p := core.PaperExample()
	tr, err := core.Solve(p, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type hit struct {
		t, x, y float64
		to      core.Region
	}
	var hits []hit
	res, err := solve(NewSolver(), p, Options{
		OnCrossing: func(t, x, y float64, to core.Region) { hits = append(hits, hit{t, x, y, to}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != res.Crossings || len(hits) != len(tr.Crossings) {
		t.Fatalf("hook saw %d crossings, result %d, core %d", len(hits), res.Crossings, len(tr.Crossings))
	}
	for i, h := range hits {
		c := tr.Crossings[i]
		if h.t != c.T || h.x != c.X || h.y != c.Y || h.to != c.To {
			t.Errorf("crossing %d: hook (%v,%v,%v,%v) core (%v,%v,%v,%v)",
				i, h.t, h.x, h.y, h.to, c.T, c.X, c.Y, c.To)
		}
	}
}

func TestModeAndPathNames(t *testing.T) {
	if ModeOn.String() != "on" || ModeOff.String() != "off" || Mode(7).String() != "Mode(7)" {
		t.Errorf("mode names: %q, %q, %q", ModeOn, ModeOff, Mode(7))
	}
	if PathAnalytic.String() != "analytic" || PathRK45.String() != "rk45" {
		t.Errorf("path names: %q, %q", PathAnalytic, PathRK45)
	}
}

func TestSolveRejectsInvalidParams(t *testing.T) {
	var p core.Params // all zero
	if _, err := solve(NewSolver(), p, Options{}); err == nil {
		t.Fatal("want validation error for zero params")
	}
	if _, err := SolveOne(p, Options{Mode: ModeOff}); err == nil {
		t.Fatal("want validation error on rk45 path too")
	}
}

func TestSolveOneMatchesSolver(t *testing.T) {
	p := core.PaperExample()
	a, err := SolveOne(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(NewSolver(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	same := a.Outcome == b.Outcome && a.Path == b.Path && a.Arcs == b.Arcs &&
		a.Crossings == b.Crossings && a.Extrema == b.Extrema &&
		feq(a.MaxX, b.MaxX) && feq(a.MinX, b.MinX) && feq(a.Rho, b.Rho) &&
		feq(a.EndT, b.EndT) && feq(a.EndX, b.EndX) && feq(a.EndY, b.EndY) &&
		feq(a.FirstMaxT, b.FirstMaxT) && feq(a.FirstMaxX, b.FirstMaxX) &&
		feq(a.FirstMinT, b.FirstMinT) && feq(a.FirstMinX, b.FirstMinX)
	if !same {
		t.Fatalf("pooled result %+v != fresh result %+v", a, b)
	}
	if got, want := a.MaxQueue(p), p.Q0+a.MaxX; got != want {
		t.Errorf("MaxQueue = %v, want %v", got, want)
	}
	if got, want := a.MinQueue(p), p.Q0+a.MinX; got != want {
		t.Errorf("MinQueue = %v, want %v", got, want)
	}
}

// TestStartOverride mirrors core.Solve's Start option handling.
func TestStartOverride(t *testing.T) {
	p := core.PaperExample()
	start := [2]float64{-p.Q0 / 2, 1e8}
	tr, err := core.Solve(p, core.SolveOptions{Start: &start})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(NewSolver(), p, Options{Start: &start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != tr.Outcome || res.EndT != tr.EndT || res.EndX != tr.EndX {
		t.Fatalf("start override: got (%v, %v, %v), core (%v, %v, %v)",
			res.Outcome, res.EndT, res.EndX, tr.Outcome, tr.EndT, tr.EndX)
	}
}

// TestTrackerResetSetsEveryField fills every Result field of a used
// tracker with a stale value and requires reset to leave exactly the
// fresh result of a solve's start: a Result field added without a line
// in reset fails here instead of leaking from one point into the next.
func TestTrackerResetSetsEveryField(t *testing.T) {
	var k tracker
	v := reflect.ValueOf(&k.res).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(3.5)
		default:
			t.Fatalf("Result.%s has kind %s; teach this test to make it stale", v.Type().Field(i).Name, f.Kind())
		}
	}
	p := core.PaperExample()
	k.reset(PathRK45, &p, &Options{})
	nan := math.NaN()
	want := reflect.ValueOf(Result{
		Path: PathRK45,
		MaxX: math.Inf(-1), MinX: math.Inf(1),
		FirstMaxT: nan, FirstMaxX: nan,
		FirstMinT: nan, FirstMinX: nan,
	})
	for i := 0; i < v.NumField(); i++ {
		got, exp := v.Field(i), want.Field(i)
		if got.Kind() == reflect.Float64 && math.Float64bits(got.Float()) == math.Float64bits(exp.Float()) ||
			got.Kind() == reflect.Int && got.Int() == exp.Int() {
			continue
		}
		t.Errorf("after reset Result.%s = %v, want %v", v.Type().Field(i).Name, got, exp)
	}
}
