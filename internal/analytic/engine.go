package analytic

import (
	"errors"
	"math"

	"bcnphase/internal/core"
)

// errNonFinite aborts a closed-form stitch whose arc evaluated to a
// non-finite time or state; Solve then re-runs the point on the RK45
// stepper.
var errNonFinite = errors.New("analytic: closed form went non-finite")

// closedStepper steps by core's closed-form arcs and refuses a step
// whose switch/glide time, or whose end state inside the strip, is not
// finite.
type closedStepper struct{}

func (closedStepper) Step(g core.Regime) (core.Step, error) {
	st, err := core.ArcStepper{}.Step(g)
	if err == nil && !(finite(st.End) && (st.Wall != 0 || finite(st.X) && finite(st.Y))) {
		return st, errNonFinite
	}
	return st, err
}

// tracker is the engine's core.Observer: instead of sampling, it folds
// the exact knots of every arc — junctions, extrema, wall hits and the
// terminal state — into the Result. Where core.Solve excuses the
// boundary-resting launch sample and then records polyline points
// arbitrarily close to it (its MinX tends to the launch value −q0 as
// sample density grows), the tracker reports that infimum directly: the
// t = 0 knot counts, so a canonical launch has MinX = −q0 exactly.
//
// With an invariant checker attached, the tracker also runs core's
// Guard at the knots, in time order (see Options.Invariants).
type tracker struct {
	res        Result
	onCrossing func(t, x, y float64, to core.Region)
	guard      core.Guard
}

func (k *tracker) reset(path Path, p core.Params, opts *Options) {
	nan := math.NaN()
	k.res = Result{
		Path: path,
		MaxX: math.Inf(-1), MinX: math.Inf(1),
		FirstMaxT: nan, FirstMaxX: nan,
		FirstMinT: nan, FirstMinX: nan,
	}
	k.onCrossing = opts.OnCrossing
	k.guard = core.Guard{}
	if opts.Invariants.Enabled() {
		k.guard = core.NewGuard(opts.Invariants, p, !opts.IgnoreBuffer)
	}
}

// knot folds one exact x value into the excursion extremes.
func (k *tracker) knot(x float64) {
	if x > k.res.MaxX {
		k.res.MaxX = x
	}
	if x < k.res.MinX {
		k.res.MinX = x
	}
}

func (k *tracker) Arc(r core.Region, t, x, y float64, st core.Step) error {
	if k.guard.Enabled() {
		if err := k.guardArc(r, t, x, y, st); err != nil {
			return err
		}
	}
	// Entry knot: the junction state is exact (carried across the
	// crossing verbatim, as core's sampler records it).
	k.knot(x)
	// The tally counts any y-zero before the switch/glide end, as
	// core.Solve's extremum list does; the excursion knot only counts
	// the part of the arc actually traversed, up to a wall hit.
	if st.Extremum {
		k.res.Extrema++
		if st.Wall == 0 || st.ExtT < st.WallT {
			k.knot(st.ExtX)
			if st.ExtMax {
				if math.IsNaN(k.res.FirstMaxT) {
					k.res.FirstMaxT, k.res.FirstMaxX = t+st.ExtT, st.ExtX
				}
			} else if math.IsNaN(k.res.FirstMinT) {
				k.res.FirstMinT, k.res.FirstMinX = t+st.ExtT, st.ExtX
			}
		}
	}
	if st.Wall != 0 {
		return nil
	}
	// A terminal closed-form glide can oscillate through further extrema
	// on its way into the convergence box; fold them into the excursion
	// the way core's per-arc sampling would. Amplitudes decay, so a
	// short scan suffices.
	if !st.Switched && st.Extremum && st.Arc.Kind() != 0 {
		tz := st.ExtT
		for i := 0; i < 4; i++ {
			tn, more := st.Arc.FirstYZero(tz)
			if !more || tn >= st.End {
				break
			}
			xn, _ := st.Arc.At(tn)
			k.knot(xn)
			tz = tn
		}
	}
	k.res.Arcs++
	return nil
}

// guardArc checks the arc's knots up to where it stops, in time order:
// the entry junction, then the x-extremum (y = 0). The exit state is
// checked as the next arc's entry, or by Finish.
func (k *tracker) guardArc(r core.Region, t, x, y float64, st core.Step) error {
	if _, _, err := k.guard.Point(r, t, x, y); err != nil {
		return err
	}
	if st.Extremum && (st.Wall == 0 || st.ExtT < st.WallT) {
		_, _, err := k.guard.Point(r, t+st.ExtT, st.ExtX, 0)
		return err
	}
	return nil
}

func (k *tracker) Crossing(t, x, y float64, to core.Region) {
	k.res.Crossings++
	if k.onCrossing != nil {
		k.onCrossing(t, x, y, to)
	}
}

func (k *tracker) Finish(r core.Region, t, x, y float64) error {
	k.knot(x)
	if k.guard.Enabled() {
		_, _, err := k.guard.Point(r, t, x, y)
		return err
	}
	return nil
}

func (k *tracker) StepFailed(_ float64, err error) error { return err }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
