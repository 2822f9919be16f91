package core

import "math"

// Regime is one step's input: the linear regime of Region entered at
// (X0, Y0), plus the geometry every step of a solve is resolved against.
type Regime struct {
	Region Region
	Linear
	X0, Y0 float64
	// K is the switching-line slope: the line is x + K·y = 0.
	K float64
	// TolX, TolY bound the convergence box |x| < TolX, |y| < TolY.
	TolX, TolY float64
	// XLo, XHi are the buffer walls x = −q0 and x = B − q0; Buffer is
	// false when they are ignored.
	XLo, XHi float64
	Buffer   bool
}

// Step is one regime's arc as a Stepper resolved it: where it ends,
// why, and the x-extremum it passes on the way.
type Step struct {
	// Arc is the closed form the step followed; the zero Arc when the
	// stepper integrated the regime numerically.
	Arc Arc
	// End is the arc time of the switching-line crossing (Switched), or
	// of the glide's arrival in the convergence box (!Switched).
	End      float64
	Switched bool
	// Wall is OutcomeOverflow or OutcomeUnderflow when the queue reaches
	// a buffer wall first, at arc time WallT ≤ End; 0 otherwise.
	Wall  Outcome
	WallT float64
	// X, Y is the state where the step stops: at WallT after a wall hit,
	// else at End.
	X, Y float64
	// Extremum reports an x-extremum (a y-zero) at arc time ExtT < End
	// with x = ExtX. It is reported even when a wall hit stops the arc
	// before ExtT. ExtMax marks a maximum; Stitch sets it from the entry
	// state.
	Extremum   bool
	ExtMax     bool
	ExtT, ExtX float64
}

// Stepper advances a trajectory through one regime.
type Stepper interface {
	Step(g Regime) (Step, error)
}

// ArcStepper steps by the closed-form arcs of §IV-B: exact switch,
// extremum and glide times, with wall hits refined by bisection.
type ArcStepper struct{}

// Step builds the regime's closed-form arc and resolves how it ends.
func (ArcStepper) Step(g Regime) (Step, error) {
	arc, err := NewArc(g.M, g.N, g.K, g.X0, g.Y0)
	if err != nil {
		return Step{}, err
	}
	eps := 1e-9 * arc.TimeScale()
	st := Step{Arc: arc}
	st.End, st.Switched = arc.FirstSwitch(eps)
	if !st.Switched {
		// Terminal arc gliding to the origin: run until inside the
		// convergence box.
		st.End = arc.glideTime(g.TolX, g.TolY)
	}
	if tz, ok := arc.FirstYZero(eps); ok && tz < st.End {
		st.Extremum, st.ExtT = true, tz
		st.ExtX, _ = arc.At(tz)
	}
	if g.Buffer {
		if st.WallT, st.Wall = arc.firstWallHit(st.ExtT, st.Extremum, st.End, g.XLo, g.XHi); st.Wall != 0 {
			st.X, st.Y = arc.At(st.WallT)
			return st, nil
		}
	}
	st.X, st.Y = arc.At(st.End)
	return st, nil
}

// Observer records what a solve produces beyond its Verdict. Stitch
// calls it in trajectory order.
type Observer interface {
	// Arc sees each step, entered in region r at global time t from
	// (x, y), before Stitch classifies how it ends. An error aborts the
	// solve.
	Arc(r Region, t, x, y float64, st Step) error
	// Crossing sees each switching-line crossing.
	Crossing(t, x, y float64, to Region)
	// Finish sees the final state, in region r. An error aborts the
	// solve.
	Finish(r Region, t, x, y float64) error
	// StepFailed decides the fate of a step the Stepper could not take
	// at global time t: nil ends the solve at the horizon, an error
	// aborts it.
	StepFailed(t float64, err error) error
}

// StitchOptions are the classification settings of a stitched solve,
// as documented on SolveOptions. Zero fields take the defaults: MaxArcs
// 1e6, ConvergeTol 1e-3, CycleTol 1e-6.
type StitchOptions struct {
	MaxArcs             int
	ConvergeTol         float64
	CycleTol            float64
	DisableShortCircuit bool
	IgnoreBuffer        bool
}

// Verdict is how a stitched solve ended.
type Verdict struct {
	Outcome Outcome
	// Rho is the last measured per-round contraction ratio (0 before
	// two same-side returns).
	Rho              float64
	EndT, EndX, EndY float64
}

// Stitch is the trajectory stitcher behind core.Solve and the analytic
// engine. From the state (x, y) at time t it steps one regime at a time
// and classifies the trajectory: buffer hit, glide into the convergence
// ball, switching-line crossing, contraction ratio ρ (limit cycle,
// divergence, short-circuit convergence) and the arc horizon. The
// Stepper decides how one regime is traversed; the Observer records
// whatever the caller needs beyond the Verdict.
func Stitch(p Params, o StitchOptions, t, x, y float64, s Stepper, obs Observer) (Verdict, error) {
	if o.MaxArcs <= 0 {
		o.MaxArcs = 1_000_000
	}
	if o.ConvergeTol <= 0 {
		o.ConvergeTol = 1e-3
	}
	if o.CycleTol <= 0 {
		o.CycleTol = 1e-6
	}
	g := Regime{
		K:    p.K(),
		TolX: o.ConvergeTol * p.Q0, TolY: o.ConvergeTol * p.C,
		XLo: -p.Q0, XHi: p.B - p.Q0,
		Buffer: !o.IgnoreBuffer,
	}
	var v Verdict
	// The active region is carried across crossings explicitly: crossing
	// points land on the switching line only up to roundoff, so
	// re-deriving the region from the state there would be fragile. The
	// end state belongs to the last region entered.
	region := p.RegionAt(x, y)
	end := func(out Outcome) (Verdict, error) {
		if err := obs.Finish(region, t, x, y); err != nil {
			return Verdict{}, err
		}
		v.Outcome, v.EndT, v.EndX, v.EndY = out, t, x, y
		return v, nil
	}

	// Same-side return amplitudes for the contraction measurement: |x|
	// at the last two crossings entering the Decrease region.
	var prev, last float64
	entries := 0

	for arcIdx := 0; arcIdx < o.MaxArcs; arcIdx++ {
		g.Region, g.Linear, g.X0, g.Y0 = region, p.RegionLinear(region), x, y
		st, err := s.Step(g)
		if err != nil {
			if err := obs.StepFailed(t, err); err != nil {
				return Verdict{}, err
			}
			return end(OutcomeHorizon)
		}
		// x is at a maximum when y falls through zero, i.e. the arc
		// entered with y > 0 (or with y = 0 and dy/dt = −n·x > 0).
		st.ExtMax = y > 0 || (y == 0 && x < 0)
		if err := obs.Arc(region, t, x, y, st); err != nil {
			return Verdict{}, err
		}
		if st.Wall != 0 {
			t += st.WallT
			x, y = st.X, st.Y
			return end(st.Wall)
		}
		t += st.End
		x, y = st.X, st.Y
		if !st.Switched {
			// Glided into the convergence box inside this region.
			return end(OutcomeConverged)
		}

		// Crossing bookkeeping: on the line σ̇ = −y, so y > 0 enters
		// the decrease region.
		region = Increase
		if y > 0 {
			region = Decrease
		}
		obs.Crossing(t, x, y, region)
		if region == Decrease {
			prev, last = last, math.Abs(x)
			entries++
		}

		// Convergence at the crossing point.
		if math.Abs(x) < g.TolX && math.Abs(y) < g.TolY {
			return end(OutcomeConverged)
		}

		// Contraction ratio after two same-side returns.
		if entries >= 2 && prev > 0 {
			rho := last / prev
			v.Rho = rho
			switch {
			case math.Abs(rho-1) <= o.CycleTol:
				return end(OutcomeLimitCycle)
			case rho > 1+o.CycleTol:
				// Diverging returns: the trajectory will eventually
				// hit the buffer unless stopped.
				if o.IgnoreBuffer {
					return end(OutcomeDiverging)
				}
			case !o.DisableShortCircuit:
				// Strict contraction measured and the widest (first)
				// round cleared the buffer strip: later rounds scale
				// down by ρ < 1, so the system converges without
				// further excursions.
				return end(OutcomeConverged)
			}
		}
	}
	return end(OutcomeHorizon)
}
