package core

import (
	"fmt"
	"math"
)

// ArcKind identifies the closed-form family of one linear regime's
// trajectory (paper §IV-B).
type ArcKind int

// The three solution families of λ² + mλ + n = 0 with m, n > 0.
const (
	// ArcSpiral: complex eigenvalues (m² < 4n); logarithmic spiral,
	// the H-form of paper Case 1 (eq. 12).
	ArcSpiral ArcKind = iota + 1
	// ArcNode: distinct negative real eigenvalues (m² > 4n); the F-form
	// (eq. 21).
	ArcNode
	// ArcCritical: repeated eigenvalue (m² = 4n); the L-form (eq. 29).
	ArcCritical
)

// String names the arc kind.
func (k ArcKind) String() string {
	switch k {
	case ArcSpiral:
		return "spiral"
	case ArcNode:
		return "node"
	case ArcCritical:
		return "critical"
	default:
		return fmt.Sprintf("ArcKind(%d)", int(k))
	}
}

// Arc is the closed-form solution of one linear regime
//
//	x' = y,  y' = −n·x − m·y
//
// from a fixed initial state, held by value: the solution family, the
// x, y and switch-coordinate s = x + k·y components, and the regime's
// time scale. Time t is measured from the arc's start. The zero Arc
// (Kind 0) is no solution; NewArc builds the valid ones.
type Arc struct {
	kind    ArcKind
	x, y, s form
	// scale is the characteristic time reported by TimeScale.
	scale float64
}

// form is one scalar component of an arc, read according to the arc's
// kind:
//
//	spiral:   a·e^{b·t}·cos(c·t + d)   amplitude, α, β, phase (eq. 12)
//	node:     a·e^{b·t} + c·e^{d·t}    c₁, λ₁, c₂, λ₂ with λ₁ < λ₂ (eq. 21)
//	critical: (a + b·t)·e^{c·t}        p, q, λ; d unused (eq. 29)
type form struct {
	a, b, c, d float64
}

// ArcDiscTol is the relative half-width of the near-degenerate band:
// a discriminant with |m²−4n| ≤ ArcDiscTol·m² is treated as a repeated
// eigenvalue and solved in the L-form. The node coefficients
// (λ₂x₀−y₀)/(λ₂−λ₁) grow like 1/√disc, so inside this band the F-form
// suffers catastrophic cancellation worse than the ≤√ArcDiscTol·m
// eigenvalue shift the L-form substitution introduces.
const ArcDiscTol = 1e-13

// NewArc builds the closed-form solution of the linear regime λ²+mλ+n=0
// from the initial state (x0, y0), with switching line x + k·y = 0.
func NewArc(m, n, k, x0, y0 float64) (Arc, error) {
	var a Arc
	err := a.init(m, n, k, x0, y0)
	return a, err
}

// init sets a to NewArc's solution in place, leaving a untouched on
// error; ArcStepper builds each step's arc this way, inside the step.
func (a *Arc) init(m, n, k, x0, y0 float64) error {
	if !(m > 0) || !(n > 0) {
		return fmt.Errorf("%w: regime coefficients m=%v, n=%v must be positive", ErrInvalidParams, m, n)
	}
	if !(k > 0) {
		return fmt.Errorf("%w: switching slope k=%v must be positive", ErrInvalidParams, k)
	}
	disc := m*m - 4*n
	if d := ArcDiscTol * m * m; disc < d && disc > -d {
		a.critical(-m/2, k, x0, y0)
		return nil
	}
	switch {
	case disc < 0:
		a.spiral(-m/2, math.Sqrt(-disc)/2, k, x0, y0)
	case disc > 0:
		s := math.Sqrt(disc)
		a.node((-m-s)/2, (-m+s)/2, k, x0, y0)
	default:
		a.critical(-m/2, k, x0, y0)
	}
	return nil
}

// spiral sets the H-form (paper eq. 12) for eigenvalues α ± iβ: a
// logarithmic spiral with x(t) = A e^{αt} cos(βt+φ).
func (a *Arc) spiral(alpha, beta, k, x0, y0 float64) {
	// x = A e^{αt} cos(βt+φ) with A cosφ = x0, A sinφ = (αx0 − y0)/β.
	sinTerm := (alpha*x0 - y0) / beta
	amp := math.Hypot(x0, sinTerm)
	phi := math.Atan2(sinTerm, x0)
	// y = x' = A e^{αt} [α cos θ − β sin θ] = A·ρy·e^{αt}·cos(θ + ψy)
	// with ρy = √(α²+β²), ψy = atan2(β, α).
	rhoY := math.Hypot(alpha, beta)
	psiY := math.Atan2(beta, alpha)
	// s = x + k y = A e^{αt}[(1+kα)cos θ − kβ sin θ] = A·ρs·cos(θ+ψs).
	rhoS := math.Hypot(1+k*alpha, k*beta)
	psiS := math.Atan2(k*beta, 1+k*alpha)
	a.kind = ArcSpiral
	a.x = form{amp, alpha, beta, phi}
	a.y = form{amp * rhoY, alpha, beta, phi + psiY}
	a.s = form{amp * rhoS, alpha, beta, phi + psiS}
	a.scale = math.Pi / beta
}

// node sets the F-form (paper eq. 21) for real eigenvalues λ1 < λ2 < 0.
func (a *Arc) node(l1, l2, k, x0, y0 float64) {
	a1 := (l2*x0 - y0) / (l2 - l1)
	a2 := (l1*x0 - y0) / (l1 - l2)
	a.kind = ArcNode
	a.x = form{a1, l1, a2, l2}
	a.y = form{a1 * l1, l1, a2 * l2, l2}
	a.s = form{a1 * (1 + k*l1), l1, a2 * (1 + k*l2), l2}
	a.scale = 1 / math.Abs(l2)
}

// critical sets the L-form (paper eq. 29) for the repeated eigenvalue λ.
func (a *Arc) critical(l, k, x0, y0 float64) {
	a3 := x0
	a4 := y0 - l*x0
	a.kind = ArcCritical
	a.x = form{a: a3, b: a4, c: l}
	a.y = form{a: a3*l + a4, b: a4 * l, c: l}
	// s = x + ky = e^{λt}[a3(1+kλ) + k·a4 + a4(1+kλ)t].
	a.s = form{a: a3*(1+k*l) + k*a4, b: a4 * (1 + k*l), c: l}
	a.scale = 1 / math.Abs(l)
}

func (f form) at(kind ArcKind, t float64) float64 {
	switch kind {
	case ArcSpiral:
		return f.a * math.Exp(f.b*t) * math.Cos(f.c*t+f.d)
	case ArcNode:
		return f.a*math.Exp(f.b*t) + f.c*math.Exp(f.d*t)
	default:
		return (f.a + f.b*t) * math.Exp(f.c*t)
	}
}

// firstZeroAfter returns the first zero of the component strictly after
// t0, and whether one exists.
func (f form) firstZeroAfter(kind ArcKind, t0 float64) (float64, bool) {
	switch kind {
	case ArcSpiral:
		// Zeros sit at βt + φ = π/2 + nπ; one always exists when A ≠ 0
		// and β > 0. Take the smallest integer n with t_n > t0.
		if f.a == 0 || f.c <= 0 {
			return 0, false
		}
		nf := (f.c*t0 + f.d - math.Pi/2) / math.Pi
		n := math.Floor(nf) + 1
		t := (math.Pi/2 + n*math.Pi - f.d) / f.c
		// Guard against roundoff returning t ≈ t0.
		for t <= t0 {
			n++
			t = (math.Pi/2 + n*math.Pi - f.d) / f.c
		}
		return t, true
	case ArcNode:
		// c1 e^{λ1 t} = −c2 e^{λ2 t} has at most one root.
		if f.a == 0 || f.c == 0 {
			return 0, false // identically signed (or zero) — no isolated root
		}
		r := -f.c / f.a
		if r <= 0 {
			return 0, false
		}
		// e^{(λ1−λ2) t} = r.
		t := math.Log(r) / (f.b - f.d)
		if t <= t0 {
			return 0, false
		}
		return t, true
	default:
		if f.b == 0 {
			return 0, false
		}
		t := -f.a / f.b
		if t <= t0 {
			return 0, false
		}
		return t, true
	}
}

// At evaluates the state at arc time t ≥ 0. The x and y components
// share their eigenvalues, so each exponential is evaluated once; the
// products keep form.at's order, so x and y are bit-identical to the
// components evaluated one at a time.
func (a *Arc) At(t float64) (x, y float64) {
	switch a.kind {
	case ArcSpiral:
		e := math.Exp(a.x.b * t)
		return a.x.a * e * math.Cos(a.x.c*t+a.x.d), a.y.a * e * math.Cos(a.y.c*t+a.y.d)
	case ArcNode:
		e1, e2 := math.Exp(a.x.b*t), math.Exp(a.x.d*t)
		return a.x.a*e1 + a.x.c*e2, a.y.a*e1 + a.y.c*e2
	default:
		e := math.Exp(a.x.c * t)
		return (a.x.a + a.x.b*t) * e, (a.y.a + a.y.b*t) * e
	}
}

// FirstYZero returns the first time strictly greater than after at which
// y(t) = 0 (an extremum of x), and whether one exists.
func (a *Arc) FirstYZero(after float64) (float64, bool) {
	return a.y.firstZeroAfter(a.kind, after)
}

// FirstSwitch returns the first time strictly greater than after at
// which x + k·y = 0 (a switching-line crossing), and whether one exists.
// k is fixed at construction.
func (a *Arc) FirstSwitch(after float64) (float64, bool) {
	return a.s.firstZeroAfter(a.kind, after)
}

// Kind reports the solution family.
func (a *Arc) Kind() ArcKind { return a.kind }

// TimeScale returns a characteristic time of the regime (used to scale
// numeric epsilons): the half-turn period for spirals, 1/|λ_slow| for
// nodes and 1/|λ| for the repeated eigenvalue.
func (a *Arc) TimeScale() float64 { return a.scale }

// Eigen returns the regime's eigenvalues: (α, β) of the complex pair
// α ± iβ for a spiral, (λ1, λ2) with λ1 < λ2 for a node, and (λ, λ) for
// the repeated eigenvalue.
func (a *Arc) Eigen() (float64, float64) {
	switch a.kind {
	case ArcSpiral:
		return a.x.b, a.x.c
	case ArcNode:
		return a.x.b, a.x.d
	default:
		return a.x.c, a.x.c
	}
}

// glideTime finds a time by which a non-switching arc is inside the
// convergence box, by doubling from the arc's characteristic time.
func (a *Arc) glideTime(tolX, tolY float64) float64 {
	t := a.scale
	for i := 0; i < 200; i++ {
		x, y := a.At(t)
		if math.Abs(x) < tolX && math.Abs(y) < tolY {
			return t
		}
		t *= 2
	}
	return t
}

// firstWallHit finds the earliest time in (0, tEnd] at which x(t)
// reaches xLo or xHi, reporting OutcomeOverflow for xHi and
// OutcomeUnderflow for xLo (0 when neither is reached). Within one arc,
// x(t) is monotone between y-zeros and the arc contains at most one
// y-zero before its end (at tz, where x = xz, when hasZ), so checking
// the entry point, the extremum and the endpoint (x = xEnd) is exact;
// the crossing time is then refined by bisection on the monotone piece.
// The caller passes the extremum and end values it has already
// evaluated with At, which equal x.at bit for bit.
//
// An entry state resting exactly on a wall (the canonical start at an
// empty queue, x = −q0) is not a hit: the trajectory is entering the
// interior. The entry knot is x.at(0), not the entry state: the closed
// form reproduces x0 only up to roundoff, and the resting rule
// depends on that exact value.
func (a *Arc) firstWallHit(tz, xz float64, hasZ bool, tEnd, xEnd, xLo, xHi float64) (float64, Outcome) {
	type knot struct{ t, x float64 }
	var knots [3]knot
	knots[0] = knot{0, a.x.at(a.kind, 0)}
	n := 1
	if hasZ {
		knots[n] = knot{tz, xz}
		n++
	}
	knots[n] = knot{tEnd, xEnd}
	n++

	for i := 1; i < n; i++ {
		ka, kb := knots[i-1], knots[i]
		switch {
		case kb.x >= xHi && ka.x < xHi:
			return a.refineWall(ka.t, kb.t, xHi, true), OutcomeOverflow
		case kb.x <= xLo && ka.x > xLo:
			return a.refineWall(ka.t, kb.t, xLo, false), OutcomeUnderflow
		case i == 1 && (ka.x >= xHi && kb.x > ka.x):
			// Entered at/beyond the ceiling and moving out.
			return ka.t, OutcomeOverflow
		case i == 1 && (ka.x <= xLo && kb.x < ka.x):
			// Entered at/below the floor and moving further out.
			return ka.t, OutcomeUnderflow
		}
	}
	return 0, 0
}

// refineWall bisects for x(t) = c on [lo, hi] where x(lo) is inside and
// x(hi) outside.
func (a *Arc) refineWall(lo, hi, c float64, upper bool) float64 {
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		x := a.x.at(a.kind, mid)
		if (upper && x < c) || (!upper && x > c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
