package core

import (
	"bcnphase/internal/ode"
	"bcnphase/internal/phaseplane"
)

// FluidRHS returns the right-hand side of the nonlinear normalized fluid
// model (paper eq. 8) in the state (x, y) = (q − q0, N·r − C):
//
//	dx/dt = y
//	dy/dt = −a(x + ky)          where x + ky < 0   (σ > 0)
//	dy/dt = −b(y + C)(x + ky)   where x + ky > 0   (σ < 0)
//
// The field is continuous across the switching line (both branches vanish
// there).
func (p Params) FluidRHS() ode.Func {
	a, b, c, k := p.A(), p.Bcoef(), p.C, p.K()
	return func(_ float64, y, dydt []float64) {
		s := y[0] + k*y[1]
		dydt[0] = y[1]
		if s < 0 {
			dydt[1] = -a * s
		} else {
			dydt[1] = -b * (y[1] + c) * s
		}
	}
}

// FluidField returns the nonlinear normalized model as a planar vector
// field for the phaseplane package.
func (p Params) FluidField() phaseplane.VectorField {
	a, b, c, k := p.A(), p.Bcoef(), p.C, p.K()
	return func(x, y float64) (float64, float64) {
		s := x + k*y
		if s < 0 {
			return y, -a * s
		}
		return y, -b * (y + c) * s
	}
}

// LinearizedField returns the piecewise-linear field of eq. 9 (the system
// whose closed forms the Arc types implement), for cross-validation.
func (p Params) LinearizedField() phaseplane.VectorField {
	a, bc, k := p.A(), p.Bcoef()*p.C, p.K()
	return func(x, y float64) (float64, float64) {
		s := x + k*y
		if s < 0 {
			return y, -a * s
		}
		return y, -bc * s
	}
}

// RawRHS returns the fluid model in the original coordinates
// (q, r) — queue length in bits and per-source rate in bits/s —
// per eqs. (4) and (7):
//
//	dq/dt = N·r − C
//	dr/dt = Gi·Ru·σ     if σ > 0
//	dr/dt = Gd·σ·r      if σ < 0
//
// with σ = −[(q − q0) + (wN/(pm·C))·(r − C/N)]. The queue is not clamped
// at zero or at the buffer.
func (p Params) RawRHS() ode.Func {
	n := float64(p.N)
	return func(_ float64, y, dydt []float64) {
		q, r := y[0], y[1]
		sigma := p.Sigma(q-p.Q0, n*r-p.C)
		dydt[0] = n*r - p.C
		if sigma > 0 {
			dydt[1] = p.Gi * p.Ru * sigma
		} else {
			dydt[1] = p.Gd * sigma * r
		}
	}
}

// ShiftedToRaw converts a shifted state (x, y) to (q, r).
func (p Params) ShiftedToRaw(x, y float64) (q, r float64) {
	return x + p.Q0, (y + p.C) / float64(p.N)
}

// RawToShifted converts (q, r) to the shifted state (x, y).
func (p Params) RawToShifted(q, r float64) (x, y float64) {
	return q - p.Q0, float64(p.N)*r - p.C
}
