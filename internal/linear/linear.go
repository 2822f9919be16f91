// Package linear implements the baseline stability analysis that the paper
// argues against: the classical linear-control treatment of Lu et al.
// ("Congestion Control in Networks with No Congestion Drops", Allerton
// 2006), which splits the BCN system into two isolated linear subsystems
// and declares the whole system stable when each subsystem is Hurwitz.
//
// The paper's Proposition 1 shows this verdict is "stable" for every
// physically valid parameter set, because both characteristic polynomials
// λ² + mᵢλ + nᵢ have positive coefficients. The verdict ignores the
// buffer bound, the switching transient, and the limit cycle — exactly the
// phenomena the phase-plane analysis exposes. This package exists so that
// experiments can contrast the two criteria side by side.
package linear

import (
	"fmt"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
)

// RouthHurwitz2 reports whether the second-order polynomial
// λ² + m·λ + n is Hurwitz (all roots in the open left half-plane):
// by the Routh–Hurwitz criterion this holds iff m > 0 and n > 0.
func RouthHurwitz2(m, n float64) bool { return m > 0 && n > 0 }

// SubsystemStable reports whether the isolated linear subsystem of the
// given region is stable in the classical sense.
func SubsystemStable(p *core.Params, r core.Region) bool {
	l := p.RegionLinear(r)
	return RouthHurwitz2(l.M, l.N)
}

// Stable is the combined baseline verdict: both isolated subsystems
// Hurwitz. This is the criterion of [4] and of Proposition 1.
func Stable(p *core.Params) bool {
	return SubsystemStable(p, core.Increase) && SubsystemStable(p, core.Decrease)
}

// Verdict is the result of the baseline analysis on one parameter set,
// alongside the paper's strong-stability verdicts for contrast.
type Verdict struct {
	// IncreaseStable and DecreaseStable are the per-subsystem
	// Routh–Hurwitz verdicts.
	IncreaseStable, DecreaseStable bool
	// LinearStable is the combined baseline verdict: both subsystems
	// Hurwitz. This is the criterion of [4] and of Proposition 1.
	LinearStable bool
	// Theorem1OK is the paper's strong-stability sufficient condition.
	Theorem1OK bool
	// TrajectoryStable is the trajectory-level strong-stability verdict
	// from the stitched phase-plane solution (the analytic engine).
	TrajectoryStable bool
	// Outcome is the stitched trajectory's ending classification.
	Outcome core.Outcome
	// Disagreement is true when the baseline says stable but the
	// trajectory violates strong stability — the paper's headline
	// phenomenon.
	Disagreement bool
}

// Compare runs the baseline criterion and the phase-plane analysis on the
// same parameters. The trajectory verdict comes from the sampling-free
// analytic engine, which every product verdict shares.
func Compare(p core.Params) (Verdict, error) {
	if err := p.Validate(); err != nil {
		return Verdict{}, fmt.Errorf("compare: %w", err)
	}
	v := Verdict{
		IncreaseStable: SubsystemStable(&p, core.Increase),
		DecreaseStable: SubsystemStable(&p, core.Decrease),
		Theorem1OK:     core.Theorem1Satisfied(p),
	}
	v.LinearStable = v.IncreaseStable && v.DecreaseStable
	res, err := analytic.SolveOne(p, analytic.Options{})
	if err != nil {
		return Verdict{}, fmt.Errorf("compare: %w", err)
	}
	v.Outcome = res.Outcome
	v.TrajectoryStable = res.Outcome.StronglyStable()
	v.Disagreement = v.LinearStable && !v.TrajectoryStable
	return v, nil
}
