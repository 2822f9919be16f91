package core

import (
	"fmt"
	"math"
)

// AnalyticRho computes the per-round contraction ratio of the linearized
// switched system in closed form: one decrease arc followed by one
// increase arc, both started on the switching line, and the ratio of the
// entry amplitudes. For a piecewise-linear system the ratio is
// scale-invariant, so a single reference round determines the asymptotic
// behaviour: ρ < 1 means the oscillation decays geometrically, ρ = 1 is
// the paper's limit cycle, and ρ > 1 would diverge (impossible here, as
// both regimes are dissipative).
//
// Only Case 1 (spiral/spiral) has a full return round; other cases glide
// to the origin after the first crossing, and AnalyticRho reports an
// error for them.
func AnalyticRho(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	// Reference crossing entering the decrease region: y > 0 on the
	// switching line. The amplitude scale is arbitrary (linearity).
	y0 := p.C
	_, x1, y1, err := halfRound(p, Decrease, -p.K()*y0, y0)
	if err != nil {
		return 0, err
	}
	_, _, y2, err := halfRound(p, Increase, x1, y1)
	if err != nil {
		return 0, err
	}
	return math.Abs(y2 / y0), nil
}

// RoundDurations returns the closed-form durations of one steady
// oscillation round of the Case-1 system: the time spent in the increase
// region (T_i) and in the decrease region (T_d) between consecutive
// switching-line crossings. For spiral regimes these are fixed fractions
// of the half-turn periods π/β and independent of amplitude, which is why
// the paper's Fig. 6 shows constant T_i^k, T_d^k after the first round.
func RoundDurations(p Params) (ti, td float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	td, x1, y1, err := halfRound(p, Decrease, -p.K()*p.C, p.C)
	if err != nil {
		return 0, 0, err
	}
	ti, _, _, err = halfRound(p, Increase, x1, y1)
	if err != nil {
		return 0, 0, err
	}
	return ti, td, nil
}

// halfRound follows region r's arc from (x, y) on the switching line to
// its next crossing, returning the arc's duration and the crossing state.
func halfRound(p Params, r Region, x, y float64) (t, x1, y1 float64, err error) {
	lin := p.RegionLinear(r)
	arc, err := NewArc(lin.M, lin.N, p.K(), x, y)
	if err != nil {
		return 0, 0, 0, err
	}
	t, ok := arc.FirstSwitch(1e-9 * arc.TimeScale())
	if !ok {
		return 0, 0, 0, fmt.Errorf("core: %v arc glides to the origin (no return round; %v)", r, p.Case())
	}
	x1, y1 = arc.At(t)
	return t, x1, y1, nil
}
