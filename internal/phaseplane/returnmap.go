package phaseplane

import (
	"errors"
	"fmt"
	"math"

	"bcnphase/internal/ode"
)

// Returned errors from the Poincaré machinery.
var (
	// ErrNoReturn is returned when the trajectory does not come back to
	// the section within the time horizon.
	ErrNoReturn = errors.New("phaseplane: trajectory did not return to the section")
	// ErrNoFixedPoint is returned when no nontrivial fixed point of the
	// return map is bracketed in the scanned interval.
	ErrNoFixedPoint = errors.New("phaseplane: no fixed point bracketed")
)

// ReturnMap computes the Poincaré first-return map of a planar flow on a
// one-dimensional section. The section is described by an embedding of a
// scalar coordinate s into the plane and a projection back; the section
// itself must coincide with the zero set of Sigma.
type ReturnMap struct {
	// Field is the (possibly switched) vector field of the flow.
	Field VectorField
	// Sigma vanishes exactly on the section.
	Sigma func(x, y float64) float64
	// Embed maps the section coordinate s to a plane point on the
	// section.
	Embed func(s float64) (x, y float64)
	// Project recovers the section coordinate from a plane point.
	Project func(x, y float64) float64
	// Horizon bounds the flight time of one return (required).
	Horizon float64
}

// validate checks required fields.
func (m *ReturnMap) validate() error {
	if m.Field == nil || m.Sigma == nil || m.Embed == nil || m.Project == nil {
		return fmt.Errorf("phaseplane: ReturnMap requires Field, Sigma, Embed and Project")
	}
	if m.Horizon <= 0 {
		return fmt.Errorf("phaseplane: ReturnMap requires positive Horizon, got %v", m.Horizon)
	}
	return nil
}

// Map flows the point with section coordinate s once around until it
// recrosses the section in the same direction, returning the new section
// coordinate and the flight time (the period of the would-be orbit).
func (m *ReturnMap) Map(s float64) (snext, period float64, err error) {
	if err := m.validate(); err != nil {
		return 0, 0, err
	}
	x0, y0 := m.Embed(s)
	// Determine the crossing direction at the start point from the sign
	// of d(sigma)/dt along the flow.
	u, v := m.Field(x0, y0)
	sdot := dirDeriv(m.Sigma, x0, y0, u, v)
	dir := +1
	if sdot < 0 {
		dir = -1
	}
	rhs := func(_ float64, y, dydt []float64) {
		dydt[0], dydt[1] = m.Field(y[0], y[1])
	}
	o := ode.DefaultOptions()
	o.Dense = false
	o.Events = []ode.Event{{
		Name:      "return",
		Terminal:  true,
		Direction: dir,
		G: func(_ float64, y []float64) float64 {
			return m.Sigma(y[0], y[1])
		},
	}}
	// Nudge off the section so the initial point does not register as a
	// crossing: take a short RK4 step (1e-6 of the horizon).
	y := []float64{x0, y0}
	h0 := 1e-6 * m.Horizon
	start := make([]float64, 2)
	if err := (ode.RK4{}).Step(rhs, 0, y, h0, start); err != nil {
		return 0, 0, fmt.Errorf("return map: nudge: %w", err)
	}
	sol, err := ode.DormandPrince(rhs, h0, start, m.Horizon, o)
	if err != nil {
		return 0, 0, fmt.Errorf("return map: %w", err)
	}
	if len(sol.Events) == 0 {
		return 0, 0, ErrNoReturn
	}
	hit := sol.Events[len(sol.Events)-1]
	return m.Project(hit.Y[0], hit.Y[1]), hit.T, nil
}

// Iterate applies the return map n times from s0, returning the orbit of
// section coordinates (length n+1, starting with s0). It stops early with
// the partial orbit and the error if a return fails.
func (m *ReturnMap) Iterate(s0 float64, n int) ([]float64, error) {
	orbit := make([]float64, 1, n+1)
	orbit[0] = s0
	s := s0
	for i := 0; i < n; i++ {
		next, _, err := m.Map(s)
		if err != nil {
			return orbit, err
		}
		orbit = append(orbit, next)
		s = next
	}
	return orbit, nil
}

// FixedPoint searches [sLo, sHi] for a root of P(s) − s by scanning nScan
// subintervals and bisecting the first bracket. Both endpoints must be on
// the same side of the trivial fixed point at the origin (exclude 0 from
// the interval to find nontrivial cycles).
func (m *ReturnMap) FixedPoint(sLo, sHi float64, nScan int) (float64, error) {
	if nScan < 2 {
		return 0, fmt.Errorf("phaseplane: nScan must be >= 2, got %d", nScan)
	}
	if !(sHi > sLo) {
		return 0, fmt.Errorf("phaseplane: empty interval [%v, %v]", sLo, sHi)
	}
	g := func(s float64) (float64, error) {
		next, _, err := m.Map(s)
		if err != nil {
			return 0, err
		}
		return next - s, nil
	}
	prevS := sLo
	prevG, err := g(prevS)
	if err != nil {
		return 0, fmt.Errorf("fixed point scan at %v: %w", prevS, err)
	}
	for i := 1; i <= nScan; i++ {
		s := sLo + (sHi-sLo)*float64(i)/float64(nScan)
		gi, err := g(s)
		if err != nil {
			return 0, fmt.Errorf("fixed point scan at %v: %w", s, err)
		}
		if prevG == 0 {
			return prevS, nil
		}
		if (prevG < 0) != (gi < 0) {
			// Bisect [prevS, s].
			lo, hi, glo := prevS, s, prevG
			for it := 0; it < 80; it++ {
				mid := 0.5 * (lo + hi)
				gm, err := g(mid)
				if err != nil {
					return 0, err
				}
				if gm == 0 {
					return mid, nil
				}
				if (glo < 0) == (gm < 0) {
					lo, glo = mid, gm
				} else {
					hi = mid
				}
				if math.Abs(hi-lo) <= 1e-10*math.Max(1, math.Abs(lo)) {
					break
				}
			}
			return 0.5 * (lo + hi), nil
		}
		prevS, prevG = s, gi
	}
	return 0, ErrNoFixedPoint
}

// Stability estimates the derivative P'(s*) of the return map at a fixed
// point by central differences; |P'| < 1 means the corresponding periodic
// orbit is attracting (a stable limit cycle).
func (m *ReturnMap) Stability(sStar, ds float64) (float64, error) {
	if ds == 0 {
		ds = 1e-4 * math.Max(1, math.Abs(sStar))
	}
	p1, _, err := m.Map(sStar + ds)
	if err != nil {
		return 0, err
	}
	p2, _, err := m.Map(sStar - ds)
	if err != nil {
		return 0, err
	}
	return (p1 - p2) / (2 * ds), nil
}

// dirDeriv numerically evaluates the directional derivative of sigma at
// (x, y) along (u, v) with a central difference scaled to the point.
func dirDeriv(sigma func(x, y float64) float64, x, y, u, v float64) float64 {
	h := 1e-7 * (1 + math.Hypot(x, y))
	n := math.Hypot(u, v)
	if n == 0 {
		return 0
	}
	ux, uy := u/n, v/n
	return (sigma(x+h*ux, y+h*uy) - sigma(x-h*ux, y-h*uy)) / (2 * h)
}
