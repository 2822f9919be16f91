package analytic

import (
	"math"
	"testing"

	"bcnphase/internal/core"
)

// FuzzAnalyticVsRK45 drives random valid parameter points through both
// engines and demands they tell the same story: same outcome (up to
// classification-boundary ties), crossing counts, and excursions within
// the integrator's tolerance. The closed-form verdict must also equal
// core.Solve's exactly. Picked up by make fuzz-short.
func FuzzAnalyticVsRK45(f *testing.F) {
	f.Add(uint8(10), uint8(20), uint8(50), uint8(8), false)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), true)
	f.Add(uint8(255), uint8(255), uint8(255), uint8(255), false)
	f.Add(uint8(77), uint8(3), uint8(128), uint8(30), true)

	f.Fuzz(func(t *testing.T, giRaw, gdRaw, nRaw, q0Raw uint8, ignoreBuffer bool) {
		p := core.PaperExample()
		// Spread the gains across decades, the population across 1..256
		// sources and the target queue across a factor of 8, staying
		// inside Params.Validate's feasible box.
		p.Gi = 0.05 * math.Pow(1.04, float64(giRaw))    // 0.05 … ~1100
		p.Gd = 0.4 * math.Pow(0.96, float64(gdRaw))     // 0.4 … ~0.00001
		p.N = 1 + int(nRaw)                             // 1 … 256
		p.Q0 = p.B / 8 * (1 + 7*float64(q0Raw)/255) / 2 // B/16 … B/2
		if err := p.Validate(); err != nil {
			t.Skip()
		}

		s := NewSolver()
		closed, err := solve(s, p, Options{IgnoreBuffer: ignoreBuffer})
		if err != nil {
			t.Fatalf("closed: %v", err)
		}
		// core.Solve runs the same stitch loop over the same arcs, so its
		// verdict must match the engine's bit for bit.
		tr, err := core.Solve(p, core.SolveOptions{IgnoreBuffer: ignoreBuffer})
		if err != nil {
			t.Fatalf("core: %v", err)
		}
		if tr.Outcome != closed.Outcome || tr.Rho != closed.Rho || len(tr.Crossings) != closed.Crossings ||
			tr.EndT != closed.EndT || tr.EndX != closed.EndX || tr.EndY != closed.EndY {
			t.Fatalf("core (%v, rho=%v, %d crossings, end %v,%v,%v) != engine (%v, rho=%v, %d crossings, end %v,%v,%v) (gi=%g gd=%g n=%d q0=%g)",
				tr.Outcome, tr.Rho, len(tr.Crossings), tr.EndT, tr.EndX, tr.EndY,
				closed.Outcome, closed.Rho, closed.Crossings, closed.EndT, closed.EndX, closed.EndY,
				p.Gi, p.Gd, p.N, p.Q0)
		}
		rk, err := solve(s, p, Options{Mode: ModeOff, IgnoreBuffer: ignoreBuffer})
		if err != nil {
			t.Fatalf("rk45: %v", err)
		}

		// Near a classification boundary (contraction ratio within a whisker
		// of 1, or an excursion grazing a buffer wall) the two engines may
		// legitimately disagree on the label; everywhere else they must not.
		borderline := closed.Rho > 0 && math.Abs(closed.Rho-1) < 1e-3
		if !ignoreBuffer {
			margin := 1e-3 * p.B
			if p.B-p.Q0-closed.MaxX < margin && closed.MaxX < p.B-p.Q0+margin {
				borderline = true
			}
			if closed.MinX+p.Q0 < margin && closed.MinX > -p.Q0-margin {
				borderline = true
			}
		}
		if closed.Outcome != rk.Outcome {
			if !borderline {
				t.Fatalf("outcome closed=%v rk=%v (gi=%g gd=%g n=%d q0=%g ignoreBuffer=%v, rho=%v maxX=%v)",
					closed.Outcome, rk.Outcome, p.Gi, p.Gd, p.N, p.Q0, ignoreBuffer, closed.Rho, closed.MaxX)
			}
			return // labels differ at a genuine boundary; states incomparable
		}
		if closed.Crossings != rk.Crossings && !borderline {
			t.Fatalf("crossings closed=%d rk=%d (gi=%g gd=%g)", closed.Crossings, rk.Crossings, p.Gi, p.Gd)
		}
		tol := func(scale float64) float64 { return 1e-5*scale + 1e-7 }
		if d := math.Abs(closed.MaxX - rk.MaxX); d > tol(math.Abs(closed.MaxX)+p.Q0) && !borderline {
			t.Fatalf("MaxX closed=%v rk=%v Δ=%g (gi=%g gd=%g)", closed.MaxX, rk.MaxX, d, p.Gi, p.Gd)
		}
		if d := math.Abs(closed.MinX - rk.MinX); d > tol(math.Abs(closed.MinX)+p.Q0) && !borderline {
			t.Fatalf("MinX closed=%v rk=%v Δ=%g (gi=%g gd=%g)", closed.MinX, rk.MinX, d, p.Gi, p.Gd)
		}
		if closed.Rho > 0 && rk.Rho > 0 && !borderline {
			if d := math.Abs(closed.Rho - rk.Rho); d > 1e-5*closed.Rho {
				t.Fatalf("rho closed=%v rk=%v (gi=%g gd=%g)", closed.Rho, rk.Rho, p.Gi, p.Gd)
			}
		}
	})
}
