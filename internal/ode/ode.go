// Package ode provides hand-rolled initial-value-problem integrators for
// small systems of ordinary differential equations, written against the
// standard library only.
//
// The package exists because the BCN fluid model (a second-order switched
// nonlinear system) must be integrated numerically to cross-validate the
// closed-form phase-plane solutions, and no mature ODE library is available
// offline. It provides the classic fixed-step RK4 step, an adaptive
// Dormand-Prince RK45 driver with PI step-size control, and event detection
// (sign-change location by bisection) used to find switching-line and
// buffer-boundary crossings.
package ode

import (
	"errors"
	"fmt"
	"math"
)

// Func evaluates the derivative dy/dt of the system state y at time t and
// stores it in dydt. Implementations must not retain y or dydt, and must not
// assume dydt is zeroed.
type Func func(t float64, y, dydt []float64)

// Common parameter-validation errors returned by the integrators.
var (
	// ErrDimension is returned when state slices disagree in length.
	ErrDimension = errors.New("ode: dimension mismatch")
	// ErrStep is returned for non-positive or non-finite step sizes.
	ErrStep = errors.New("ode: invalid step size")
	// ErrMaxSteps is returned when the adaptive driver exceeds its step
	// budget before reaching the end of the integration interval.
	ErrMaxSteps = errors.New("ode: maximum number of steps exceeded")
	// ErrStepUnderflow is returned when the adaptive driver's step size
	// collapses below the representable resolution at the current time.
	ErrStepUnderflow = errors.New("ode: step size underflow")
	// ErrNotFinite is returned when the derivative or state becomes NaN
	// or infinite during integration.
	ErrNotFinite = errors.New("ode: state is not finite")
	// ErrOptions wraps all Options validation failures.
	ErrOptions = errors.New("ode: invalid options")
)

// RK4 is the classic fourth-order Runge-Kutta method.
type RK4 struct{}

// Step advances y by one classic RK4 step of size h, computing y(t+h)
// from y(t) into out. out must have the same length as y and may alias y.
func (RK4) Step(f Func, t float64, y []float64, h float64, out []float64) error {
	if err := checkStepArgs(y, h, out); err != nil {
		return err
	}
	n := len(y)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)

	f(t, y, k1)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + 0.5*h*k1[i]
	}
	f(t+0.5*h, tmp, k2)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + 0.5*h*k2[i]
	}
	f(t+0.5*h, tmp, k3)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + h*k3[i]
	}
	f(t+h, tmp, k4)
	for i := 0; i < n; i++ {
		out[i] = y[i] + h/6.0*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	return nil
}

func checkStepArgs(y []float64, h float64, out []float64) error {
	if len(y) == 0 || len(out) != len(y) {
		return ErrDimension
	}
	if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
		return fmt.Errorf("%w: h=%v", ErrStep, h)
	}
	return nil
}

func finite(y []float64) bool {
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
