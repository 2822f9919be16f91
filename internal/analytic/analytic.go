// Package analytic is the sampling-free fast path of the phase-plane
// engine: it runs core.Stitch — the same stitch loop and closed-form
// arcs (paper §IV-B, eqs. 12–34) as core.Solve — with an observer that
// records only the junction quantities (exact switching times, extrema
// and boundary-crossing times) instead of a 64-sample polyline per arc.
// A Solver carries reusable state, so in steady state a solve allocates
// nothing; the Batch structure-of-arrays API amortizes one Solver across
// K parameter points per call.
//
// The engine exists for the hot paths: gain-plane sweeps (cmd/bcnsweep,
// cluster shards, bcnd sweep jobs) and bcnd solve jobs classify
// millions of parameter points and need only the verdict (outcome,
// extrema, contraction ratio), never the polyline. Every gain-plane
// row comes from here, under every invariant policy: an attached
// checker runs core.Guard, the predicates core.Solve checks at its
// samples, at the exact knots instead. core.Solve remains the engine
// behind figures, SVG portraits and anything else that needs sampled
// trajectories, and behind checked solve jobs, which may integrate
// through parameters this engine refuses. Because both run one loop
// over one arc type, they agree bit-for-bit on every finite verdict
// (asserted across the sweep grid in engine_test.go and continuously by
// invariant/xcheck).
//
// Two escape hatches keep the closed forms honest, both running the
// same loop with a Dormand-Prince stepper (internal/ode) that knows
// nothing about the solution forms:
//
//   - ModeOff classifies by integration alone. It is the validation
//     baseline that FuzzAnalyticVsRK45, the xcheck harness and the
//     speedup gate compare against.
//   - A closed-form arc that evaluates to a non-finite state mid-stitch
//     sends that point to the RK45 stepper (counted in Metrics).
package analytic

import (
	"errors"
	"fmt"
	"sync"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
)

// Mode selects the solving strategy.
type Mode int

// The engine modes, as spelled by the -analytic flag and job specs.
const (
	// ModeOn (the default) stitches closed-form arcs and falls back to
	// RK45 only for arcs whose closed form goes non-finite.
	ModeOn Mode = iota
	// ModeOff disables the closed forms entirely: classification runs on
	// stitched numerical integration (the validation baseline).
	ModeOff
)

// ParseMode parses an -analytic flag or spec value. The empty string is
// ModeOn, matching the default-on contract of the CLIs and bcnd; "auto"
// is accepted as an alias of "on".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "on", "auto":
		return ModeOn, nil
	case "off":
		return ModeOff, nil
	default:
		return 0, fmt.Errorf("analytic: unknown mode %q (want on or off)", s)
	}
}

// String spells the mode as ParseMode reads it.
func (m Mode) String() string {
	switch m {
	case ModeOn:
		return "on"
	case ModeOff:
		return "off"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Path records which engine actually produced a result.
type Path int

// The execution paths.
const (
	// PathAnalytic: closed-form arc stitching end to end.
	PathAnalytic Path = iota + 1
	// PathRK45: stitched numerical integration (ModeOff, or the
	// non-finite fallback).
	PathRK45
)

// String names the path.
func (p Path) String() string {
	switch p {
	case PathAnalytic:
		return "analytic"
	case PathRK45:
		return "rk45"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// Options configures a solve. The zero value matches core.SolveOptions
// defaults: canonical start (−q0, 0), buffer enforced, short-circuit
// convergence on.
type Options struct {
	// Mode selects the engine (default ModeOn).
	Mode Mode
	// Start overrides the initial state (x0, y0); nil means (−q0, 0).
	Start *[2]float64
	// MaxArcs bounds the number of stitched arcs (default 1e6).
	MaxArcs int
	// ConvergeTol is the relative convergence tolerance (default 1e-3),
	// identical to core.SolveOptions.
	ConvergeTol float64
	// CycleTol is the relative limit-cycle tolerance (default 1e-6).
	CycleTol float64
	// DisableShortCircuit turns off the analytic convergence
	// short-circuit (contraction ratio < 1 after a buffer-checked round).
	DisableShortCircuit bool
	// IgnoreBuffer disables overflow/underflow termination.
	IgnoreBuffer bool
	// OnCrossing, when non-nil, observes every switching-line crossing as
	// it is stitched (global time, state, region entered). The hook costs
	// one nil check per crossing; the xcheck harness uses it to capture
	// junction points without the engine allocating a crossing list.
	OnCrossing func(t, x, y float64, to core.Region)
	// Invariants optionally attaches a runtime invariant checker, as
	// core.SolveOptions.Invariants does for the sampled solver. Its
	// guard runs at every exact knot, in time order: each arc's entry
	// junction and x-extremum (where the arc reaches it), and the
	// terminal state. Nothing between knots can fail a bound the knots
	// pass: x-extrema are knots and walls end the arc, and the rate
	// y′ = −n·x − m·y = −n·(x + k·y) (m = k·n) vanishes only on the
	// switching line, so y is monotone along every arc and its extremes
	// are the arc's end knots. Under Strict the first violation aborts
	// Solve with a *invariant.InvariantError; under Record and Clamp
	// the tallies accumulate in the checker and the verdict is unchanged
	// (knots are exact, so Clamp repairs nothing). Solve refuses
	// parameters Params.Validate rejects under every policy. The checker
	// must be fresh, or Reset, for each solve.
	Invariants *invariant.Checker
	// Metrics optionally attaches engine counters. Nil costs one
	// comparison per solve.
	Metrics *Metrics
}

// Result is the verdict of one solve: everything a sweep row or a solve
// artifact needs, nothing that requires sampling. Extremes are exact
// (closed-form extremum states), so MaxX here is ≥ the polyline-sampled
// core.Trajectory.MaxX for the same point.
type Result struct {
	// Outcome classifies how the trajectory ended (same taxonomy and
	// same decision logic as core.Solve).
	Outcome core.Outcome
	// Path records which engine produced this result.
	Path Path
	// Arcs counts stitched arcs (terminal boundary-truncated arcs
	// excluded, matching len(core.Trajectory.Segments)).
	Arcs int
	// Crossings counts switching-line crossings.
	Crossings int
	// Extrema counts recorded x-extrema.
	Extrema int
	// MaxX, MinX are the extreme x excursions (shifted coordinates).
	// Both are exact knot values; the t = 0 launch knot counts, so a
	// canonical start reports MinX = −q0 exactly — the infimum that
	// core.Solve's polyline approaches as sample density grows.
	MaxX, MinX float64
	// Rho is the measured per-round contraction ratio (0 when fewer than
	// two same-side returns were seen).
	Rho float64
	// EndT, EndX, EndY is the final state.
	EndT, EndX, EndY float64
	// FirstMaxT/X and FirstMinT/X are the first recorded maximum and
	// minimum of x (NaN when none occurred) — the paper's first-round
	// transient peak and trough.
	FirstMaxT, FirstMaxX float64
	FirstMinT, FirstMinX float64
}

// MaxQueue returns the peak queue length q0 + MaxX in bits.
func (r Result) MaxQueue(p core.Params) float64 { return p.Q0 + r.MaxX }

// MinQueue returns the minimum queue length q0 + MinX in bits.
func (r Result) MinQueue(p core.Params) float64 { return p.Q0 + r.MinX }

// Solver runs core.Stitch with reusable state. The zero value is ready;
// a Solver is not safe for concurrent use (give each worker its own, or
// use SolveOne).
type Solver struct {
	track tracker
	rk    rkStepper
}

// NewSolver returns a Solver.
func NewSolver() *Solver { return new(Solver) }

// Solve classifies one parameter point. For valid parameters under
// ModeOn the closed-form stepper handles every arc (the three solution
// families cover all positive m, n); the RK45 fallback exists for the
// defensive non-finite case and is counted when taken.
func (s *Solver) Solve(p core.Params, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	start := [2]float64{-p.Q0, 0}
	if opts.Start != nil {
		start = *opts.Start
	}
	var err error
	if opts.Mode != ModeOff {
		err = s.stitch(p, opts, start, closedStepper{}, PathAnalytic)
		if errors.Is(err, errNonFinite) {
			if opts.Metrics != nil {
				opts.Metrics.RK45Fallbacks.Inc()
			}
			// The re-run starts over from t = 0.
			opts.Invariants.Reset()
			err = s.stitch(p, opts, start, &s.rk, PathRK45)
		}
	} else {
		err = s.stitch(p, opts, start, &s.rk, PathRK45)
	}
	if err != nil {
		return Result{}, err
	}
	if opts.Metrics != nil {
		opts.Metrics.observe(&s.track.res)
	}
	return s.track.res, nil
}

// stitch runs the shared stitch loop with the given stepper, leaving
// the result in s.track.
func (s *Solver) stitch(p core.Params, opts Options, start [2]float64, st core.Stepper, path Path) error {
	s.track.reset(path, p, &opts)
	v, err := core.Stitch(p, core.StitchOptions{
		MaxArcs:             opts.MaxArcs,
		ConvergeTol:         opts.ConvergeTol,
		CycleTol:            opts.CycleTol,
		DisableShortCircuit: opts.DisableShortCircuit,
		IgnoreBuffer:        opts.IgnoreBuffer,
	}, 0, start[0], start[1], st, &s.track)
	if err != nil {
		return err
	}
	r := &s.track.res
	r.Outcome, r.Rho = v.Outcome, v.Rho
	r.EndT, r.EndX, r.EndY = v.EndT, v.EndX, v.EndY
	return nil
}

// solverPool backs SolveOne so one-shot callers still hit warm buffers.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// SolveOne classifies one point using a pooled Solver; safe for
// concurrent use.
func SolveOne(p core.Params, opts Options) (Result, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Solve(p, opts)
}
