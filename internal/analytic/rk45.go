package analytic

import (
	"fmt"
	"math"

	"bcnphase/internal/core"
	"bcnphase/internal/ode"
)

// rkStepper steps by Dormand-Prince integration of each regime, knowing
// nothing about the solution forms: the eigenstructure is consulted only
// for time scales (step caps and integration horizons), never for
// states. It is the ModeOff validation baseline and the non-finite
// fallback.
type rkStepper struct {
	// y0 is the reusable initial-state buffer.
	y0 []float64
}

func (r *rkStepper) Step(g *core.Regime, st *core.Step) error {
	*st = core.Step{}
	if !(g.M > 0) || !(g.N > 0) || !(g.K > 0) {
		return fmt.Errorf("%w: regime coefficients m=%v, n=%v, k=%v must be positive",
			core.ErrInvalidParams, g.M, g.N, g.K)
	}
	// Entered at or beyond a wall and moving further out: an immediate
	// hit, as the closed-form stepper's entry-knot check rules.
	if g.Buffer {
		switch {
		case g.X0 >= g.XHi && g.Y0 > 0:
			st.Wall, st.X, st.Y = core.OutcomeOverflow, g.X0, g.Y0
			return nil
		case g.X0 <= g.XLo && g.Y0 < 0:
			st.Wall, st.X, st.Y = core.OutcomeUnderflow, g.X0, g.Y0
			return nil
		}
	}
	return r.integrateArc(g, st)
}

// integrateArc integrates one regime from (x0, y0) into st until the
// state exits through the switching line, hits a buffer boundary, or
// settles into the convergence box. The horizon doubles until one of
// those happens.
func (r *rkStepper) integrateArc(g *core.Regime, st *core.Step) error {
	lin, k, x0, y0 := g.Linear, g.K, g.X0, g.Y0
	f := func(_ float64, st, d []float64) {
		d[0] = st[1]
		d[1] = -lin.N*st[0] - lin.M*st[1]
	}
	scale := regimeScale(lin)
	epsArm := 1e-9 * scale

	// Exit direction: s = x + k·y rises out of the increase region and
	// falls out of the decrease region (ṡ = y at the line).
	dir := +1
	if g.Region == core.Decrease {
		dir = -1
	}
	// The y-zero event is armed past epsArm with the sign y takes just
	// after the junction, so a start with y = 0 exactly (the canonical
	// launch) cannot fake an extremum at t ≈ 0.
	ySign := y0
	if ySign == 0 {
		ySign = -lin.N*x0 - lin.M*y0
	}
	if ySign == 0 {
		ySign = 1
	} else {
		ySign = math.Copysign(1, ySign)
	}
	events := []ode.Event{
		{Name: "switch", Direction: dir, Terminal: true,
			G: func(_ float64, st []float64) float64 { return st[0] + k*st[1] }},
		{Name: "yzero", Direction: 0,
			G: func(t float64, st []float64) float64 {
				if t <= epsArm {
					return ySign
				}
				return st[1]
			}},
	}
	if g.Buffer {
		events = append(events,
			ode.Event{Name: "hi", Direction: +1, Terminal: true,
				G: func(_ float64, st []float64) float64 { return st[0] - g.XHi }},
			ode.Event{Name: "lo", Direction: -1, Terminal: true,
				G: func(_ float64, st []float64) float64 { return st[0] - g.XLo }},
		)
	}

	if cap(r.y0) < 2 {
		r.y0 = make([]float64, 2)
	}
	y0v := r.y0[:2]

	horizon := 8 * scale
	for attempt := 0; attempt < 40; attempt++ {
		y0v[0], y0v[1] = x0, y0
		sol, err := ode.DormandPrince(f, 0, y0v, horizon, ode.Options{
			AbsTol: 1e-12, RelTol: 1e-10,
			MaxStep: scale / 8,
			Events:  events,
		})
		if err != nil {
			return fmt.Errorf("analytic: rk45 segment: %w", err)
		}
		*st = core.Step{}
		for i := range sol.Events {
			hit := &sol.Events[i]
			switch hit.Name {
			case "yzero":
				if !st.Extremum && hit.T > epsArm {
					st.Extremum, st.ExtT, st.ExtX = true, hit.T, hit.Y[0]
				}
			case "switch":
				st.End, st.X, st.Y = hit.T, hit.Y[0], hit.Y[1]
				st.Switched = true
			case "hi":
				st.End, st.X, st.Y = hit.T, g.XHi, hit.Y[1]
				st.Wall, st.WallT = core.OutcomeOverflow, hit.T
			case "lo":
				st.End, st.X, st.Y = hit.T, g.XLo, hit.Y[1]
				st.Wall, st.WallT = core.OutcomeUnderflow, hit.T
			}
		}
		if st.Switched || st.Wall != 0 {
			return nil
		}
		// No exit inside the horizon: a glide that has settled into the
		// convergence box ends the trajectory; otherwise widen and retry.
		_, yEnd := sol.Last()
		xe, ye := yEnd[0], yEnd[1]
		if math.Abs(xe) < g.TolX && math.Abs(ye) < g.TolY {
			st.End, st.X, st.Y = horizon, xe, ye
			return nil
		}
		horizon *= 2
	}
	return fmt.Errorf("analytic: rk45 segment found no exit within %g characteristic times", 8*math.Pow(2, 40))
}

// regimeScale is the regime's characteristic time: the spiral half-turn
// period, or 1/|λ_slow| for (near-)real eigenvalues — the same quantity
// core.Arc.TimeScale reports outside the near-degenerate band, used here only to size steps and horizons.
func regimeScale(lin core.Linear) float64 {
	disc := lin.M*lin.M - 4*lin.N
	if disc < 0 {
		return math.Pi / (math.Sqrt(-disc) / 2)
	}
	l2 := (-lin.M + math.Sqrt(disc)) / 2
	if l2 == 0 {
		return 2 / lin.M
	}
	return 1 / math.Abs(l2)
}
