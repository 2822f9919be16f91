package core

import (
	"fmt"
	"math"
)

// Theorem1Bound returns the paper's strong-stability bound on the peak
// queue length:
//
//	(1 + sqrt(Ru·Gi·N / (Gd·C))) · q0
//
// The BCN system is strongly stable when this bound is below the buffer
// size B (Theorem 1).
func Theorem1Bound(p Params) float64 { return p.Theorem1Bound() }

// Theorem1Bound is the package function Theorem1Bound, reading p
// through a pointer so a caller holding *Params copies nothing.
func (p *Params) Theorem1Bound() float64 {
	return (1 + math.Sqrt(p.A()/(p.Bcoef()*p.C))) * p.Q0
}

// Theorem1Satisfied reports whether the sufficient condition of Theorem 1
// holds: Theorem1Bound(p) < B.
func Theorem1Satisfied(p Params) bool {
	return p.Theorem1Bound() < p.B
}

// RequiredBuffer returns the minimum buffer size for which Theorem 1
// guarantees strong stability at these parameters — the worked example of
// the paper's §IV remarks (13.75 Mbit for the PaperExample parameters).
func RequiredBuffer(p Params) float64 { return Theorem1Bound(p) }

// BandwidthDelayProduct returns C·rtt, the classical buffer-sizing
// rule-of-thumb the paper contrasts against Theorem 1.
func BandwidthDelayProduct(c, rtt float64) float64 { return c * rtt }

// Proposition1 reports the linear-theory verdict for both isolated
// subsystems (paper Proposition 1): by Routh–Hurwitz, λ² + mλ + n is
// Hurwitz iff m > 0 and n > 0, which holds for every physically valid
// parameter set. The returned values are the per-region verdicts
// (increase, decrease).
func Proposition1(p Params) (increaseStable, decreaseStable bool) {
	li := p.RegionLinear(Increase)
	ld := p.RegionLinear(Decrease)
	return li.M > 0 && li.N > 0, ld.M > 0 && ld.N > 0
}

// FirstRoundExtrema computes max¹{x(t)} and min¹{x(t)} — the first-round
// queue overshoot above q0 and undershoot below q0 of the trajectory
// started at (−q0, 0) — analytically from the stitched closed-form arcs.
// These are the quantities bounded by the paper's eqs. (36)–(38):
// the overshoot occurs at the first y-zero of the first decrease arc, the
// undershoot at the first y-zero of the second increase arc.
//
// The returned values are in shifted coordinates (x = q − q0); the queue
// peak is q0 + max1 and the trough q0 + min1. An error is returned if the
// trajectory never switches (Cases 3–5 variants where the decrease arc
// glides to the origin; then there is no undershoot and min1 is reported
// as 0 with ok=false semantics folded into the error).
func FirstRoundExtrema(p Params) (max1, min1 float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	k := p.K()

	// Increase arc from (−q0, 0) to the first switching-line crossing.
	li := p.RegionLinear(Increase)
	arcI, err := NewArc(li.M, li.N, k, -p.Q0, 0)
	if err != nil {
		return 0, 0, err
	}
	eps := 1e-12 * arcI.TimeScale()
	tSwitch, ok := arcI.FirstSwitch(eps)
	if !ok {
		return 0, 0, fmt.Errorf("core: increase arc from (−q0, 0) never reaches the switching line")
	}
	xd0, yd0 := arcI.At(tSwitch)

	// Decrease arc: the first y-zero is the queue maximum.
	ld := p.RegionLinear(Decrease)
	arcD, err := NewArc(ld.M, ld.N, k, xd0, yd0)
	if err != nil {
		return 0, 0, err
	}
	epsD := 1e-12 * arcD.TimeScale()
	tMax, ok := arcD.FirstYZero(epsD)
	if !ok {
		return 0, 0, fmt.Errorf("core: decrease arc has no x-extremum (y never crosses zero)")
	}
	max1, _ = arcD.At(tMax)

	// If the decrease arc never switches back (node gliding to the
	// origin), there is no undershoot phase.
	tBack, ok := arcD.FirstSwitch(epsD)
	if !ok {
		return max1, 0, fmt.Errorf("core: decrease arc never returns to the switching line (no undershoot round)")
	}
	xi0, yi0 := arcD.At(tBack)

	// Second increase arc: its first y-zero is the queue minimum.
	arcI2, err := NewArc(li.M, li.N, k, xi0, yi0)
	if err != nil {
		return max1, 0, err
	}
	tMin, ok := arcI2.FirstYZero(1e-12 * arcI2.TimeScale())
	if !ok {
		return max1, 0, fmt.Errorf("core: second increase arc has no x-extremum")
	}
	min1, _ = arcI2.At(tMin)
	return max1, min1, nil
}

// Proposition2Satisfied reports the Case 1 strong-stability check of
// Proposition 2: max1 < B − q0 and min1 > −q0, with the extrema computed
// from the closed-form arcs.
func Proposition2Satisfied(p Params) (bool, error) {
	max1, min1, err := FirstRoundExtrema(p)
	if err != nil {
		return false, err
	}
	return max1 < p.B-p.Q0 && min1 > -p.Q0, nil
}

// Theorem1LooseBounds returns the analytic envelopes used in the proof of
// Theorem 1: max1 < sqrt(a/(bC))·q0 and min1 > −q0.
func Theorem1LooseBounds(p Params) (maxBound, minBound float64) {
	return math.Sqrt(p.A()/(p.Bcoef()*p.C)) * p.Q0, -p.Q0
}

// CriterionReport compares all of the paper's stability criteria for one
// parameter set.
type CriterionReport struct {
	Params Params
	// Case is the phase-trajectory case classification.
	Case CaseKind
	// LinearStable is the verdict of the baseline linear analysis
	// (Proposition 1): true whenever parameters are physically valid.
	LinearStable bool
	// Theorem1Bound is (1+sqrt(a/(bC)))·q0, the guaranteed peak queue.
	Theorem1Bound float64
	// Theorem1OK is Theorem1Bound < B.
	Theorem1OK bool
	// Max1 and Min1 are the exact first-round extrema in shifted
	// coordinates, when defined (Exact=true).
	Max1, Min1 float64
	Exact      bool
	// ExactOK is the Proposition 2/3 check on the exact extrema.
	ExactOK bool
}

// Criteria evaluates every stability criterion on p.
func Criteria(p Params) (CriterionReport, error) {
	if err := p.Validate(); err != nil {
		return CriterionReport{}, err
	}
	inc, dec := Proposition1(p)
	rep := CriterionReport{
		Params:        p,
		Case:          p.Case(),
		LinearStable:  inc && dec,
		Theorem1Bound: Theorem1Bound(p),
		Theorem1OK:    Theorem1Satisfied(p),
	}
	max1, min1, err := FirstRoundExtrema(p)
	if err == nil {
		rep.Max1, rep.Min1, rep.Exact = max1, min1, true
		rep.ExactOK = max1 < p.B-p.Q0 && min1 > -p.Q0
	} else {
		// Cases 3–5: no undershoot round; the trajectory glides to
		// the origin inside the strip, so the exact check reduces to
		// the overshoot (if any) staying below B − q0.
		rep.Max1, rep.Min1, rep.Exact = max1, 0, false
		rep.ExactOK = max1 < p.B-p.Q0
	}
	return rep, nil
}
