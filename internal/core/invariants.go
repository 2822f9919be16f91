package core

import (
	"math"

	"bcnphase/internal/invariant"
)

// Invariant predicate names used by the core solver. They are shared with
// netsim so violation tallies aggregate across the fluid and packet
// layers under the same keys.
const (
	// PredParamsValid flags a parameter set rejected by Params.Validate
	// that a Record/Clamp run integrates through anyway.
	PredParamsValid = "params-valid"
	// PredRegimeValid flags a linear regime whose closed form cannot be
	// constructed (non-positive coefficients, e.g. a negative gain).
	PredRegimeValid = "regime-valid"
	// PredFinite flags a NaN or infinite state sample.
	PredFinite = "finite"
	// PredMonotoneTime flags a sample clock that went backwards.
	PredMonotoneTime = "monotone-time"
	// PredQueueBounds flags a queue outside [0, B].
	PredQueueBounds = "queue-bounds"
	// PredRateBounds flags a negative aggregate rate (y < −C).
	PredRateBounds = "rate-bounds"
	// PredSigmaBranch flags a sampled state whose σ sign disagrees with
	// the active control branch (AI vs MD).
	PredSigmaBranch = "sigma-branch"
)

// Guard evaluates the model invariants at points of a stitched
// trajectory. It is the one predicate set behind every checked solve:
// Solve's sampler runs it at every polyline sample, the analytic
// engine's tracker at every exact knot (junctions, x-extrema and the
// terminal state). A Guard with a nil / Off checker costs one branch
// per point.
type Guard struct {
	chk *invariant.Checker
	p   Params
	k   float64
	// checkBuffer gates the queue-bounds predicate (off when the solve
	// ignores the buffer and draws the unconstrained portrait).
	checkBuffer bool
}

// NewGuard returns the guard of a solve of p under chk; checkBuffer
// enables the queue-bounds predicate.
func NewGuard(chk *invariant.Checker, p Params, checkBuffer bool) Guard {
	var g Guard
	g.Reset(chk, &p, checkBuffer)
	return g
}

// Reset makes g, in place, the guard NewGuard returns. Under a nil or
// Off checker it sets chk alone: the other fields are read only while
// the guard is enabled, so a solver reusing one Guard copies no Params.
func (g *Guard) Reset(chk *invariant.Checker, p *Params, checkBuffer bool) {
	g.chk = chk
	if chk.Enabled() {
		g.p, g.k, g.checkBuffer = *p, p.K(), checkBuffer
	}
}

// Enabled reports whether the guard performs any work.
func (g *Guard) Enabled() bool { return g.chk.Enabled() }

// Point checks one state (t, x, y) in region r against the model
// invariants, returning the (possibly clamped) state. Under the Strict
// policy the first violation surfaces as a *invariant.InvariantError.
func (g *Guard) Point(r Region, t, x, y float64) (float64, float64, error) {
	if !g.Enabled() {
		return x, y, nil
	}
	if err := g.chk.Finite2(t, x, y); err != nil {
		return x, y, err
	}
	if err := g.chk.MonotoneTime(t); err != nil {
		return x, y, err
	}
	// σ-sign consistency with the active branch: inside the increase
	// region the switch coordinate s = x + k·y is negative (σ > 0),
	// inside the decrease region positive. Arc junctions land exactly on
	// the line, so the check carries a relative slack. The condition is
	// tested inline so a passing sample boxes no Failf arguments.
	s := x + g.k*y
	tol := 1e-6 * (g.p.Q0 + math.Abs(x) + g.k*math.Abs(y))
	switch {
	case r == Increase && !(s <= tol):
		if err := g.chk.Failf(PredSigmaBranch, t,
			"increase-branch state has s=x+ky=%g > 0 (x=%g, y=%g)", s, x, y); err != nil {
			return x, y, err
		}
	case r == Decrease && !(s >= -tol):
		if err := g.chk.Failf(PredSigmaBranch, t,
			"decrease-branch state has s=x+ky=%g < 0 (x=%g, y=%g)", s, x, y); err != nil {
			return x, y, err
		}
	}
	// Queue bounds 0 ≤ q ≤ B, i.e. −q0 ≤ x ≤ B−q0 (Definition 1's strip;
	// boundary-resting states are legal). Clamp projects back inside.
	if g.checkBuffer {
		var err error
		x, err = g.chk.Range(PredQueueBounds, t, x, -g.p.Q0, g.p.B-g.p.Q0, 1e-9*g.p.B)
		if err != nil {
			return x, y, err
		}
	}
	// Aggregate rate non-negativity: N·r = C + y ≥ 0.
	y, err := g.chk.Range(PredRateBounds, t, y, -g.p.C, math.Inf(1), 1e-9*g.p.C)
	if err != nil {
		return x, y, err
	}
	return x, y, nil
}
