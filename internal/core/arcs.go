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
	var (
		a  Arc
		sh arcShape
	)
	sh.resolve(m, n, k)
	err := a.init(&sh, x0, y0)
	return a, err
}

// arcShape is what an arc takes from its regime (m, n, k) alone: the
// solution family, the eigenvalues, the constants that turn the x form
// into the y and s forms, and the time scale. A Stitcher resolves it
// once per regime and reuses it for every arc of that regime; the arc
// itself then only fits the entry state. The expressions are NewArc's,
// in the same order, so an arc built from a reused shape is the same
// arc bit for bit.
type arcShape struct {
	// key holds the bits of the (m, n, k) the shape was resolved for;
	// the zero shape (no kind, no error) is unresolved.
	key  [3]uint64
	err  error
	kind ArcKind
	k    float64
	// e1, e2 are the eigenvalues: α and β of α ± iβ (spiral), λ1 < λ2
	// (node), λ twice (critical).
	e1, e2 float64
	// Spiral: y = ρy·(x's amplitude) at phase +ψy, s likewise with ρs, ψs.
	rhoY, psiY, rhoS, psiS float64
	// Node: λ2−λ1, λ1−λ2 and 1+kλ1, 1+kλ2; critical: 1+kλ in kl1.
	d21, d12, kl1, kl2 float64
	scale              float64
}

// resolve sets s to the shape of the regime λ²+mλ+n=0 with switching
// slope k, unless s already holds exactly that regime.
func (s *arcShape) resolve(m, n, k float64) {
	key := [3]uint64{math.Float64bits(m), math.Float64bits(n), math.Float64bits(k)}
	if (s.kind != 0 || s.err != nil) && s.key == key {
		return
	}
	*s = arcShape{key: key, k: k}
	if !(m > 0) || !(n > 0) {
		s.err = fmt.Errorf("%w: regime coefficients m=%v, n=%v must be positive", ErrInvalidParams, m, n)
		return
	}
	if !(k > 0) {
		s.err = fmt.Errorf("%w: switching slope k=%v must be positive", ErrInvalidParams, k)
		return
	}
	disc := m*m - 4*n
	if d := ArcDiscTol * m * m; disc < d && disc > -d {
		s.critical(-m / 2)
		return
	}
	switch {
	case disc < 0:
		s.spiral(-m/2, math.Sqrt(-disc)/2)
	case disc > 0:
		sq := math.Sqrt(disc)
		s.node((-m-sq)/2, (-m+sq)/2)
	default:
		s.critical(-m / 2)
	}
}

// spiral sets the H-form (paper eq. 12) shape for eigenvalues α ± iβ.
func (s *arcShape) spiral(alpha, beta float64) {
	k := s.k
	s.kind, s.e1, s.e2 = ArcSpiral, alpha, beta
	// y = x' = A e^{αt} [α cos θ − β sin θ] = A·ρy·e^{αt}·cos(θ + ψy)
	// with ρy = √(α²+β²), ψy = atan2(β, α).
	s.rhoY = math.Hypot(alpha, beta)
	s.psiY = math.Atan2(beta, alpha)
	// s = x + k y = A e^{αt}[(1+kα)cos θ − kβ sin θ] = A·ρs·cos(θ+ψs).
	s.rhoS = math.Hypot(1+k*alpha, k*beta)
	s.psiS = math.Atan2(k*beta, 1+k*alpha)
	s.scale = math.Pi / beta
}

// node sets the F-form (paper eq. 21) shape for real eigenvalues
// λ1 < λ2 < 0.
func (s *arcShape) node(l1, l2 float64) {
	s.kind, s.e1, s.e2 = ArcNode, l1, l2
	s.d21, s.d12 = l2-l1, l1-l2
	s.kl1, s.kl2 = 1+s.k*l1, 1+s.k*l2
	s.scale = 1 / math.Abs(l2)
}

// critical sets the L-form (paper eq. 29) shape for the repeated
// eigenvalue λ.
func (s *arcShape) critical(l float64) {
	s.kind, s.e1, s.e2 = ArcCritical, l, l
	s.kl1 = 1 + s.k*l
	s.scale = 1 / math.Abs(l)
}

// init sets a to the solution of shape sh from (x0, y0), leaving a
// untouched when the shape is an invalid regime; ArcStepper builds each
// step's arc this way, inside the step.
func (a *Arc) init(sh *arcShape, x0, y0 float64) error {
	if sh.err != nil {
		return sh.err
	}
	switch sh.kind {
	case ArcSpiral:
		// x = A e^{αt} cos(βt+φ) with A cosφ = x0, A sinφ = (αx0 − y0)/β.
		alpha, beta := sh.e1, sh.e2
		sinTerm := (alpha*x0 - y0) / beta
		amp := math.Hypot(x0, sinTerm)
		phi := math.Atan2(sinTerm, x0)
		a.x = form{amp, alpha, beta, phi}
		a.y = form{amp * sh.rhoY, alpha, beta, phi + sh.psiY}
		a.s = form{amp * sh.rhoS, alpha, beta, phi + sh.psiS}
	case ArcNode:
		l1, l2 := sh.e1, sh.e2
		a1 := (l2*x0 - y0) / sh.d21
		a2 := (l1*x0 - y0) / sh.d12
		a.x = form{a1, l1, a2, l2}
		a.y = form{a1 * l1, l1, a2 * l2, l2}
		a.s = form{a1 * sh.kl1, l1, a2 * sh.kl2, l2}
	default:
		l := sh.e1
		a3 := x0
		a4 := y0 - l*x0
		a.x = form{a: a3, b: a4, c: l}
		a.y = form{a: a3*l + a4, b: a4 * l, c: l}
		// s = x + ky = e^{λt}[a3(1+kλ) + k·a4 + a4(1+kλ)t].
		a.s = form{a: a3*sh.kl1 + sh.k*a4, b: a4 * sh.kl1, c: l}
	}
	a.kind, a.scale = sh.kind, sh.scale
	return nil
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

// atZero is at(kind, 0) bit for bit (up to a NaN's payload), without
// the exponentials: with finite rates, b·0 and c·0 are zeros, Exp(±0)
// = 1 and c·0 + d = d up to the sign of a zero, which Cos, being even,
// does not see. A non-finite rate turns those products into NaN, so it
// goes to at.
func (f form) atZero(kind ArcKind) float64 {
	switch {
	case kind == ArcSpiral && finite(f.b) && finite(f.c):
		return f.a * math.Cos(f.d)
	case kind == ArcNode && finite(f.b) && finite(f.d):
		return f.a + f.c
	case kind == ArcCritical && finite(f.c):
		return f.a + f.b*0
	}
	return f.at(kind, 0)
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
// the crossing time is then solved for on the monotone piece by
// wallTime. The caller passes the extremum and end values it has
// already evaluated with At, which equal x.at bit for bit.
func (a *Arc) firstWallHit(tz, xz float64, hasZ bool, tEnd, xEnd, xLo, xHi float64) (float64, Outcome) {
	w, out := a.locateWall(tz, xz, hasZ, tEnd, xEnd, xLo, xHi)
	if out == 0 || w.hi == 0 {
		return 0, out
	}
	t, _ := a.wallTime(&w)
	return t, out
}

// wallBracket is a wall crossing located between two knots: x(lo) = in
// is inside the wall x = c and x(hi) = out is at or past it. upper
// marks the ceiling (inside means x < c), else the floor (x > c).
type wallBracket struct {
	lo, hi, in, out, c float64
	upper              bool
}

// locateWall returns the first piece between knots on which x reaches
// a wall, and which wall (0 when none). A hit at entry returns the zero
// bracket (hi = 0).
//
// An entry state resting exactly on a wall (the canonical start at an
// empty queue, x = −q0) is not a hit: the trajectory is entering the
// interior. The entry knot is x.at(0), not the entry state: the closed
// form reproduces x0 only up to roundoff, and the resting rule
// depends on that exact value. It is evaluated by x.atZero, which
// drops the exponentials at t = 0 and returns the same bits.
func (a *Arc) locateWall(tz, xz float64, hasZ bool, tEnd, xEnd, xLo, xHi float64) (wallBracket, Outcome) {
	type knot struct{ t, x float64 }
	var knots [3]knot
	knots[0] = knot{0, a.x.atZero(a.kind)}
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
			return wallBracket{ka.t, kb.t, ka.x, kb.x, xHi, true}, OutcomeOverflow
		case kb.x <= xLo && ka.x > xLo:
			return wallBracket{ka.t, kb.t, ka.x, kb.x, xLo, false}, OutcomeUnderflow
		case i == 1 && (ka.x >= xHi && kb.x > ka.x):
			// Entered at/beyond the ceiling and moving out.
			return wallBracket{}, OutcomeOverflow
		case i == 1 && (ka.x <= xLo && kb.x < ka.x):
			// Entered at/below the floor and moving further out.
			return wallBracket{}, OutcomeUnderflow
		}
	}
	return wallBracket{}, 0
}

// wallTime returns the time x crosses the wall on the bracket w,
// strictly after the inside knot so that an extremum at that knot still
// counts as reached, and the number of x evaluations it took. No
// verdict reads the time's last bits: the knot scan has decided the
// crossing, and the bracket decides which extremum precedes it.
//
// It runs Newton's method with y = x′ from the secant of the two knots
// (from the outside knot if the secant misses (lo, hi)), safeguarded by
// the bracket: each evaluation narrows [lo, hi] to the side of the wall
// x is on, and a step that is not finite or would land outside (lo, hi)
// bisects instead. It stops at the first point whose computed x is
// within e of the wall, where e bounds the roundoff of x over the
// bracket (errBound), or at hi once the bracket closes to adjacent
// floats or after 80 evaluations.
func (a *Arc) wallTime(w *wallBracket) (float64, int) {
	lo, hi := w.lo, w.hi
	e := a.x.errBound(a.kind, lo, hi)
	t := lo + (w.c-w.in)*(hi-lo)/(w.out-w.in)
	if !(t > lo && t < hi) {
		t = hi
	}
	for evals := 1; evals <= 80; evals++ {
		x, y := a.At(t)
		if math.Abs(x-w.c) <= e {
			return t, evals
		}
		if w.upper && x < w.c || !w.upper && x > w.c {
			lo = t
		} else {
			hi = t
		}
		if next := t - (x-w.c)/y; next > lo && next < hi {
			t = next
			continue
		}
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			return hi, evals
		}
		t = mid
	}
	return hi, 80
}

// errBound bounds |computed − exact| of f.at(kind, t) over 0 ≤ lo ≤
// t ≤ hi, where exact is the form's value in exact arithmetic on its
// rounded coefficients. ε = 2⁻⁵³ per rounding; Exp and Cos are taken
// within 1 ulp (2ε relative, 2ε absolute for Cos); rounding b·t moves
// e^{bt} by ε|b|t relatively, and rounding c·t + d moves the cosine by
// ε(2|c|t + |d|). Per kind, with e the largest exponential over the
// bracket:
//
//	spiral:   ε·|a|e·(|b|hi + 2|c|hi + |d| + 6)
//	node:     ε·(|a|e₁·(|b|hi + 4) + |c|e₂·(|d|hi + 4))
//	critical: ε·e·(|a| + 2|b|hi)·(|c|hi + 4)
//
// plus 2⁻¹⁰⁷⁰ per unit of coefficient for products that go subnormal,
// all times a safety factor of 4 for the second-order terms and the
// ulp claims. A non-finite bound means no bound.
func (f form) errBound(kind ArcKind, lo, hi float64) float64 {
	const (
		eps    = 0x1p-53
		tiny   = 0x1p-1070
		safety = 4
	)
	maxExp := func(r float64) float64 { return math.Exp(math.Max(r*lo, r*hi)) }
	switch kind {
	case ArcSpiral:
		a := math.Abs(f.a)
		return safety * (eps*a*maxExp(f.b)*(math.Abs(f.b)*hi+2*math.Abs(f.c)*hi+math.Abs(f.d)+6) + tiny*a)
	case ArcNode:
		a, c := math.Abs(f.a), math.Abs(f.c)
		return safety * (eps*(a*maxExp(f.b)*(math.Abs(f.b)*hi+4)+c*maxExp(f.d)*(math.Abs(f.d)*hi+4)) + tiny*(a+c))
	default:
		ab := math.Abs(f.a) + 2*math.Abs(f.b)*hi
		return safety * (eps*maxExp(f.c)*ab*(math.Abs(f.c)*hi+4) + tiny*ab)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
