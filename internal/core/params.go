// Package core implements the fluid-flow model of the BCN (Backward
// Congestion Notification) congestion-control system from "Phase Plane
// Analysis of Congestion Control in Data Center Ethernet Networks"
// (Ren & Jiang, ICDCS 2010).
//
// The model is the switched second-order autonomous system (paper eq. 8)
//
//	dx/dt = y
//	dy/dt = -a(x + ky)          when σ > 0   (rate increase)
//	dy/dt = -b(y + C)(x + ky)   when σ < 0   (rate decrease)
//
// in the shifted coordinates x = q − q0 (queue offset) and y = N·r − C
// (aggregate rate offset), with σ = −(x + k·y), a = Ru·Gi·N, b = Gd and
// k = w/(pm·C). The package provides:
//
//   - parameter handling and the paper's case classification (Cases 1–5),
//   - closed-form solutions of the linearized regimes (spiral, node,
//     degenerate node) with analytic switching times and extrema,
//   - stitched piecewise trajectories and strong-stability verdicts,
//   - the Theorem 1 stability criterion and Propositions 1–4,
//   - right-hand sides of the nonlinear fluid model for numerical
//     integration with internal/ode.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Default parameter values recommended by the BCN standard draft
// (Bergamasco, "Data Center Ethernet Congestion Management: Backward
// Congestion Notification") and used in the paper's Theorem 1 example.
const (
	// DefaultGi is the additive-increase gain.
	DefaultGi = 4.0
	// DefaultGd is the multiplicative-decrease gain.
	DefaultGd = 1.0 / 128
	// DefaultRu is the rate increase unit in bits per second (8 Mbit).
	DefaultRu = 8e6
	// DefaultW is the weight on the queue derivative in σ.
	DefaultW = 2.0
	// DefaultPm is the deterministic sampling probability.
	DefaultPm = 0.01
)

// ErrInvalidParams wraps all parameter-validation failures.
var ErrInvalidParams = errors.New("core: invalid parameters")

// Params holds the physical and control parameters of one BCN-controlled
// bottleneck. All quantities use bits, bits/second and seconds.
type Params struct {
	// N is the number of homogeneous active flows sharing the bottleneck.
	N int
	// C is the bottleneck link capacity in bits/second.
	C float64
	// Ru is the rate increase unit (bits/second).
	Ru float64
	// Gi is the additive increase gain.
	Gi float64
	// Gd is the multiplicative decrease gain.
	Gd float64
	// W is the weight on Δq in the congestion measure σ.
	W float64
	// Pm is the deterministic sampling probability at the congestion
	// point.
	Pm float64
	// Q0 is the queue length reference (equilibrium target), in bits.
	Q0 float64
	// B is the physical buffer size in bits.
	B float64
	// Qsc is the severe-congestion threshold (PAUSE trigger), in bits.
	// Optional for fluid analysis; must satisfy Q0 < Qsc <= B when set.
	Qsc float64
}

// PaperExample returns the parameter set of the paper's Theorem 1 worked
// example: N=50 flows on a 10 Gbps link, q0 = 2.5 Mbit, standard-draft
// gains, and a buffer equal to the 5 Mbit bandwidth-delay product.
func PaperExample() Params {
	return Params{
		N:  50,
		C:  10e9,
		Ru: DefaultRu,
		Gi: DefaultGi,
		Gd: DefaultGd,
		W:  DefaultW,
		Pm: DefaultPm,
		Q0: 2.5e6,
		B:  5e6,
	}
}

// Validate checks the physical feasibility of the parameters.
func (p *Params) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidParams, fmt.Sprintf(format, args...))
	}
	if p.N <= 0 {
		return fail("N=%d must be positive", p.N)
	}
	if !(p.C > 0) || math.IsInf(p.C, 0) {
		return fail("C=%v must be positive and finite", p.C)
	}
	if !(p.Ru > 0) || math.IsInf(p.Ru, 0) {
		return fail("Ru=%v must be positive and finite", p.Ru)
	}
	if !(p.Gi > 0) || math.IsInf(p.Gi, 0) {
		return fail("Gi=%v must be positive and finite", p.Gi)
	}
	if !(p.Gd > 0) || math.IsInf(p.Gd, 0) {
		return fail("Gd=%v must be positive and finite", p.Gd)
	}
	if !(p.W > 0) || math.IsInf(p.W, 0) {
		return fail("W=%v must be positive and finite", p.W)
	}
	if !(p.Pm > 0) || p.Pm > 1 {
		return fail("Pm=%v must be in (0, 1]", p.Pm)
	}
	if !(p.Q0 > 0) || math.IsInf(p.Q0, 0) {
		return fail("Q0=%v must be positive and finite", p.Q0)
	}
	if !(p.B > p.Q0) || math.IsInf(p.B, 0) {
		return fail("B=%v must exceed Q0=%v and be finite", p.B, p.Q0)
	}
	if p.Qsc != 0 && (p.Qsc <= p.Q0 || p.Qsc > p.B) {
		return fail("Qsc=%v must satisfy Q0 < Qsc <= B", p.Qsc)
	}
	return nil
}

// A returns the aggregate additive-increase coefficient a = Ru·Gi·N
// (paper §IV-A).
func (p *Params) A() float64 { return p.Ru * p.Gi * float64(p.N) }

// Bcoef returns the multiplicative-decrease coefficient b = Gd.
func (p *Params) Bcoef() float64 { return p.Gd }

// K returns the switching-line slope parameter k = w/(pm·C); the switching
// line is x + k·y = 0.
func (p *Params) K() float64 { return p.W / (p.Pm * p.C) }

// AThreshold returns 4·pm²·C²/w², the spiral/node boundary for the
// increase-region coefficient a (paper Case conditions). Equivalently a
// region with λ²+k·n·λ+n=0 is a spiral iff n < 4/k².
func (p *Params) AThreshold() float64 {
	r := p.Pm * p.C / p.W
	return 4 * r * r
}

// BThreshold returns 4·pm²·C/w², the spiral/node boundary for the
// decrease-region coefficient b = Gd. Unlike the other methods it takes
// a value receiver, so it reads off a Params returned by value, such as
// FigureExample().BThreshold().
func (p Params) BThreshold() float64 { return p.bThreshold() }

func (p *Params) bThreshold() float64 {
	return 4 * p.Pm * p.Pm * p.C / (p.W * p.W)
}

// Sigma evaluates the congestion measure σ = −[x + k·y] at the shifted
// state (x, y). Positive σ means the source should increase its rate.
func (p *Params) Sigma(x, y float64) float64 { return -(x + p.K()*y) }

// SwitchCoord returns s = x + k·y, the signed distance surrogate from the
// switching line: s < 0 is the rate-increase region, s > 0 the decrease
// region.
func (p *Params) SwitchCoord(x, y float64) float64 { return x + p.K()*y }

// Queue returns the queue length q0 + x, in bits, at the shifted queue
// coordinate x.
func (p *Params) Queue(x float64) float64 { return p.Q0 + x }

// Region identifies which rate-adjustment law is active.
type Region int

// The two regions of the variable-structure control.
const (
	// Increase is the additive-increase region (σ > 0).
	Increase Region = iota + 1
	// Decrease is the multiplicative-decrease region (σ < 0).
	Decrease
)

// String returns "increase" or "decrease".
func (r Region) String() string {
	switch r {
	case Increase:
		return "increase"
	case Decrease:
		return "decrease"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// RegionAt determines the active region at the shifted state (x, y).
// Exactly on the switching line the region is decided by the flow
// direction: σ̇ = −y there, so y > 0 enters Decrease and y < 0 enters
// Increase (at y = 0 on the line the state is the equilibrium).
func (p *Params) RegionAt(x, y float64) Region {
	s := p.SwitchCoord(x, y)
	switch {
	case s < 0:
		return Increase
	case s > 0:
		return Decrease
	default:
		if y > 0 {
			return Decrease
		}
		return Increase
	}
}

// RegionN returns the characteristic-equation constant term n for the
// region: n = a in Increase, n = b·C in Decrease. The characteristic
// equation of the linearized regime is λ² + k·n·λ + n = 0 (paper eq. 35).
func (p *Params) RegionN(r Region) float64 {
	if r == Increase {
		return p.A()
	}
	return p.Bcoef() * p.C
}

// RegionLinear returns the linearized system of the given region in
// companion form (paper eq. 9).
func (p *Params) RegionLinear(r Region) Linear {
	n := p.RegionN(r)
	return Linear{M: p.K() * n, N: n}
}

// Linear captures one linear regime λ² + M·λ + N = 0 in companion form
// x' = y, y' = −N·x − M·y.
type Linear struct {
	M, N float64
}

// Discriminant returns M² − 4N.
func (l Linear) Discriminant() float64 { return l.M*l.M - 4*l.N }

// CaseKind is the paper's six-way case classification of the switched
// system by the trajectory type in each region (paper §IV-C).
type CaseKind int

// The paper's cases. Case 5 merges the two threshold-equality conditions.
const (
	// Case1: spiral in both regions (a < 4pm²C²/w² and b < 4pm²C/w²).
	// Oscillatory; the only case where a limit cycle can appear.
	Case1 CaseKind = iota + 1
	// Case2: node in the increase region, spiral in the decrease region
	// (a > threshold, b < threshold).
	Case2
	// Case3: spiral in increase, node in decrease (a < threshold,
	// b > threshold). Always strongly stable.
	Case3
	// Case4: node in both regions. Always strongly stable.
	Case4
	// Case5: at least one region exactly critical (a or b equal to its
	// threshold, repeated eigenvalue λ = −1/k). Always strongly stable.
	Case5
)

// String names the case.
func (c CaseKind) String() string {
	switch c {
	case Case1:
		return "case 1 (spiral/spiral)"
	case Case2:
		return "case 2 (node/spiral)"
	case Case3:
		return "case 3 (spiral/node)"
	case Case4:
		return "case 4 (node/node)"
	case Case5:
		return "case 5 (critical)"
	default:
		return fmt.Sprintf("CaseKind(%d)", int(c))
	}
}

// Case classifies the parameter set into the paper's cases.
func (p *Params) Case() CaseKind {
	a, b := p.A(), p.Bcoef()
	ta, tb := p.AThreshold(), p.bThreshold()
	switch {
	case a == ta || b == tb:
		return Case5
	case a < ta && b < tb:
		return Case1
	case a > ta && b < tb:
		return Case2
	case a < ta && b > tb:
		return Case3
	default:
		return Case4
	}
}

// WarmupTime returns T0 = (C − N·μ)/(a·q0), the duration of the initial
// acceleration from per-source rate μ until the aggregate rate reaches C
// while the queue is still empty (paper §IV-C). μ is the initial rate of
// each source in bits/second; it must satisfy N·μ ≤ C.
func (p *Params) WarmupTime(mu float64) (float64, error) {
	if mu < 0 {
		return 0, fmt.Errorf("%w: negative initial rate %v", ErrInvalidParams, mu)
	}
	agg := float64(p.N) * mu
	if agg > p.C {
		return 0, fmt.Errorf("%w: initial aggregate rate %v exceeds capacity %v", ErrInvalidParams, agg, p.C)
	}
	return (p.C - agg) / (p.A() * p.Q0), nil
}
