package ode

import (
	"fmt"
	"math"
)

// Options configures the adaptive drivers. The zero value is usable:
// DefaultOptions fills in sensible tolerances and limits.
type Options struct {
	// AbsTol and RelTol are the absolute and relative local error
	// tolerances (per component, combined as atol + rtol*|y|).
	AbsTol float64
	RelTol float64
	// MaxStep caps the step size. Zero means no cap beyond the interval
	// length.
	MaxStep float64
	// MaxSteps bounds the number of accepted+rejected steps. Zero means
	// 10 million.
	MaxSteps int
	// Events are located during integration. A Terminal event stops the
	// integration at the crossing.
	Events []Event
	// Dense, when true, records every accepted step in the Solution.
	// When false only the initial and final states (plus event points)
	// are kept.
	Dense bool
}

// Validate rejects unusable option values with a descriptive error. Zero
// values are legal everywhere (they mean "use the default"); what is
// rejected is anything the adaptive driver would otherwise silently
// misbehave on: NaN or negative tolerances, a non-finite or negative step
// cap,
// and a negative step budget.
func (o Options) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrOptions, fmt.Sprintf(format, args...))
	}
	if o.AbsTol < 0 || math.IsNaN(o.AbsTol) || math.IsInf(o.AbsTol, 0) {
		return fail("AbsTol=%v must be a finite non-negative number", o.AbsTol)
	}
	if o.RelTol < 0 || math.IsNaN(o.RelTol) || math.IsInf(o.RelTol, 0) {
		return fail("RelTol=%v must be a finite non-negative number", o.RelTol)
	}
	if o.MaxStep < 0 || math.IsNaN(o.MaxStep) || math.IsInf(o.MaxStep, 0) {
		return fail("MaxStep=%v must be finite and non-negative", o.MaxStep)
	}
	if o.MaxSteps < 0 {
		return fail("MaxSteps=%d must be non-negative", o.MaxSteps)
	}
	return nil
}

// DefaultOptions returns the tolerances used throughout this repository:
// rtol 1e-9, atol 1e-12, dense output enabled.
func DefaultOptions() Options {
	return Options{AbsTol: 1e-12, RelTol: 1e-9, Dense: true}
}

func (o Options) withDefaults() Options {
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-12
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-9
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 10_000_000
	}
	return o
}

// DormandPrince integrates dy/dt = f(t, y) from t0 to t1 (t1 > t0) with
// the Dormand-Prince 5(4) pair, adaptive step-size control and optional
// event location. It returns the accepted mesh; if a terminal event
// fires, integration stops there and the event is recorded in
// Solution.Events.
func DormandPrince(f Func, t0 float64, y0 []float64, t1 float64, opts Options) (*Solution, error) {
	return integrate(DormandPrinceTableau(), f, t0, y0, t1, opts)
}

// integrate is the shared embedded-pair driver.
func integrate(tb Tableau, f Func, t0 float64, y0 []float64, t1 float64, opts Options) (*Solution, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("%w: t1=%v <= t0=%v", ErrStep, t1, t0)
	}
	if len(y0) == 0 {
		return nil, ErrDimension
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := len(y0)
	order := float64(tb.Order)

	sol := &Solution{}
	y := cloneVec(y0)
	sol.append(t0, y)

	k := make([][]float64, tb.Stages)
	for i := range k {
		k[i] = make([]float64, n)
	}
	ytmp := make([]float64, n)
	yHigh := make([]float64, n)
	errv := make([]float64, n)

	f(t0, y, k[0])
	if !finite(k[0]) {
		return sol, fmt.Errorf("%w: derivative at t0", ErrNotFinite)
	}

	h := initialStep(f, t0, y, k[0], t1, opts, order)
	maxStep := opts.MaxStep
	if maxStep <= 0 {
		maxStep = t1 - t0
	}

	ev := newEventTracker(opts.Events, t0, y)

	t := t0
	prevErr := 1.0 // for the PI controller
	for step := 0; ; step++ {
		if step >= opts.MaxSteps {
			return sol, fmt.Errorf("%w (%d)", ErrMaxSteps, opts.MaxSteps)
		}
		if t >= t1 {
			break
		}
		if h > maxStep {
			h = maxStep
		}
		if t+h > t1 {
			h = t1 - t
		}
		minStep := 16 * math.Max(math.Nextafter(math.Abs(t), math.Inf(1))-math.Abs(t), 1e-300)
		if h < minStep {
			return sol, fmt.Errorf("%w: h=%v at t=%v", ErrStepUnderflow, h, t)
		}

		// Stages (k[0] holds f(t, y) already — recomputed or FSAL).
		for s := 1; s < tb.Stages; s++ {
			for i := 0; i < n; i++ {
				acc := 0.0
				for j := 0; j < s; j++ {
					acc += tb.A[s][j] * k[j][i]
				}
				ytmp[i] = y[i] + h*acc
			}
			f(t+tb.C[s]*h, ytmp, k[s])
		}
		for i := 0; i < n; i++ {
			accHigh, accLow := 0.0, 0.0
			for s := 0; s < tb.Stages; s++ {
				accHigh += tb.BHigh[s] * k[s][i]
				accLow += tb.BLow[s] * k[s][i]
			}
			yHigh[i] = y[i] + h*accHigh
			errv[i] = h * (accHigh - accLow)
		}
		if !finite(yHigh) {
			// Reduce and retry; if already tiny, bail.
			h *= 0.25
			if h < minStep {
				return sol, fmt.Errorf("%w at t=%v", ErrNotFinite, t)
			}
			f(t, y, k[0]) // restore the first stage before retrying
			continue
		}

		// Weighted RMS error norm.
		norm := 0.0
		for i := 0; i < n; i++ {
			sc := opts.AbsTol + opts.RelTol*math.Max(math.Abs(y[i]), math.Abs(yHigh[i]))
			e := errv[i] / sc
			norm += e * e
		}
		norm = math.Sqrt(norm / float64(n))

		if norm <= 1 {
			// Accept.
			tNew := t + h
			hit, stop := ev.check(f, t, y, tNew, yHigh)
			if hit != nil {
				sol.Events = append(sol.Events, *hit)
				if stop {
					sol.append(hit.T, hit.Y)
					return sol, nil
				}
			}
			t = tNew
			copy(y, yHigh)
			if opts.Dense || t >= t1 {
				sol.append(t, y)
			}
			if tb.FSAL {
				copy(k[0], k[tb.Stages-1])
			} else {
				f(t, y, k[0])
			}
			// PI step controller (Gustafsson).
			beta1 := 0.7 / order
			beta2 := 0.4 / order
			fac := math.Pow(norm+1e-16, -beta1) * math.Pow(prevErr+1e-16, beta2)
			fac = math.Min(5, math.Max(0.2, 0.9*fac))
			h *= fac
			prevErr = norm
		} else {
			// Reject: shrink.
			h *= math.Max(0.1, 0.9*math.Pow(norm, -1/order))
		}
	}
	return sol, nil
}

// initialStep estimates a starting step from derivative magnitudes,
// following Hairer-Norsett-Wanner's heuristic (simplified).
func initialStep(f Func, t0 float64, y0, dy0 []float64, t1 float64, opts Options, order float64) float64 {
	d0, d1 := weightedNorm(y0, y0, opts), weightedNorm(dy0, y0, opts)
	var h0 float64
	if d0 < 1e-5 || d1 < 1e-5 {
		h0 = 1e-6
	} else {
		h0 = 0.01 * (d0 / d1)
	}
	// One Euler probe to estimate the second derivative scale.
	n := len(y0)
	y1 := make([]float64, n)
	for i := range y1 {
		y1[i] = y0[i] + h0*dy0[i]
	}
	dy1 := make([]float64, n)
	f(t0+h0, y1, dy1)
	diff := make([]float64, n)
	for i := range diff {
		diff[i] = dy1[i] - dy0[i]
	}
	d2 := weightedNorm(diff, y0, opts) / h0
	var h1 float64
	if math.Max(d1, d2) <= 1e-15 {
		h1 = math.Max(1e-6, h0*1e-3)
	} else {
		h1 = math.Pow(0.01/math.Max(d1, d2), 1/order)
	}
	h := math.Min(100*h0, h1)
	return math.Min(h, t1-t0)
}

func weightedNorm(v, ref []float64, opts Options) float64 {
	s := 0.0
	for i, x := range v {
		sc := opts.AbsTol + opts.RelTol*math.Abs(ref[i])
		e := x / sc
		s += e * e
	}
	return math.Sqrt(s / float64(len(v)))
}
