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
	// shape, when set, is the Stitcher's memo of this region's arc
	// shape; ArcStepper re-resolves it only when the regime changed.
	shape *arcShape
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
	// else at End. A wall crossing reports X on the wall exactly (XHi or
	// XLo); a hit at entry (WallT = 0) reports the entry state.
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
	// Step resolves the regime g into st. Both belong to the caller,
	// which reuses them from arc to arc: Step overwrites every field of
	// st and keeps neither pointer after it returns.
	Step(g *Regime, st *Step) error
}

// ArcStepper steps by the closed-form arcs of §IV-B: exact switch,
// extremum and glide times, and wall hits solved for by Newton's method
// on the monotone piece the knot scan brackets (wallTime).
type ArcStepper struct{}

// Step builds the regime's closed-form arc and resolves how it ends.
// The end state is evaluated before the wall check, which reuses it and
// the extremum instead of evaluating the arc there again.
func (ArcStepper) Step(g *Regime, st *Step) error {
	*st = Step{}
	arc := &st.Arc
	var local arcShape
	sh := g.shape
	if sh == nil {
		sh = &local
	}
	sh.resolve(g.M, g.N, g.K)
	if err := arc.init(sh, g.X0, g.Y0); err != nil {
		return err
	}
	eps := 1e-9 * arc.TimeScale()
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
	st.X, st.Y = arc.At(st.End)
	if !g.Buffer {
		return nil
	}
	// The wall is the wall: a crossing stops the step on it exactly, an
	// entry hit at the entry knot.
	st.WallT, st.Wall = arc.firstWallHit(st.ExtT, st.ExtX, st.Extremum, st.End, st.X, g.XLo, g.XHi)
	switch {
	case st.Wall == 0:
	case st.WallT == 0:
		st.X, st.Y = arc.At(0)
	case st.Wall == OutcomeOverflow:
		st.X, st.Y = g.XHi, arc.y.at(arc.kind, st.WallT)
	default:
		st.X, st.Y = g.XLo, arc.y.at(arc.kind, st.WallT)
	}
	return nil
}

// Observer records what a solve produces beyond its Verdict. Stitch
// calls it in trajectory order.
type Observer interface {
	// Arc sees each step, entered in region r at global time t from
	// (x, y), before Stitch classifies how it ends. st belongs to the
	// Stitcher, which reuses it for the next arc: Arc may read it but
	// must not keep the pointer (copy what it needs). An error aborts
	// the solve.
	Arc(r Region, t, x, y float64, st *Step) error
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

// Classification tolerances of a stitched solve, relative to the scale
// of each quantity.
const (
	// convergeTol is the convergence ball: a trajectory has converged
	// when |x| < convergeTol·q0 and |y| < convergeTol·C.
	convergeTol = 1e-3
	// cycleTol declares a limit cycle when |ρ−1| ≤ cycleTol.
	cycleTol = 1e-6
)

// StitchOptions are the classification settings of a stitched solve,
// as documented on SolveOptions. A zero MaxArcs means 1e6.
type StitchOptions struct {
	MaxArcs             int
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

// Stitcher is the trajectory stitcher behind core.Solve and the
// analytic engine. Its Stitch method runs the one stitch loop; the
// Stitcher itself holds the loop's scratch, the Regime handed to each
// Step and the Step resolved into, so a Stitcher reused across solves
// steps without copying or allocating. The zero value is ready; a
// Stitcher is not safe for concurrent use.
type Stitcher struct {
	g  Regime
	st Step
	// shapes memoise the arc shapes of the increase and decrease
	// regimes, keyed on their exact (M, N, K): every arc of a regime
	// reuses them, and so does the next solve of a reused Stitcher
	// while the regime stays put (a gain-map row shares its Gi, so its
	// increase regime).
	shapes [2]arcShape
}

// Stitch steps from the state (x, y) at time t one regime at a time
// and classifies the trajectory: buffer hit, glide into the convergence
// ball, switching-line crossing, contraction ratio ρ (limit cycle,
// divergence, short-circuit convergence) and the arc horizon. The
// Stepper decides how one regime is traversed; the Observer records
// whatever the caller needs beyond the Verdict.
func (z *Stitcher) Stitch(p *Params, o StitchOptions, t, x, y float64, s Stepper, obs Observer) (Verdict, error) {
	if o.MaxArcs <= 0 {
		o.MaxArcs = 1_000_000
	}
	g, st := &z.g, &z.st
	*g = Regime{
		K:    p.K(),
		TolX: convergeTol * p.Q0, TolY: convergeTol * p.C,
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

	// The two regimes, resolved once per solve instead of once per arc.
	inc, dec := p.RegionLinear(Increase), p.RegionLinear(Decrease)
	for arcIdx := 0; arcIdx < o.MaxArcs; arcIdx++ {
		g.Region, g.Linear, g.X0, g.Y0, g.shape = region, dec, x, y, &z.shapes[1]
		if region == Increase {
			g.Linear, g.shape = inc, &z.shapes[0]
		}
		if err := s.Step(g, st); err != nil {
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
			case math.Abs(rho-1) <= cycleTol:
				return end(OutcomeLimitCycle)
			case rho > 1+cycleTol:
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
