package core

import (
	"fmt"
	"math"
	"time"

	"bcnphase/internal/invariant"
)

// Outcome classifies how a stitched trajectory ended.
type Outcome int

// Trajectory outcomes.
const (
	// OutcomeConverged: the state entered the convergence ball around
	// the equilibrium (directly or via the asymptotic contraction
	// short-circuit).
	OutcomeConverged Outcome = iota + 1
	// OutcomeOverflow: the queue hit the buffer ceiling (x ≥ B − q0);
	// packets would be dropped. Not strongly stable.
	OutcomeOverflow
	// OutcomeUnderflow: the queue emptied after start (x ≤ −q0 with
	// t > 0); the link would idle. Not strongly stable.
	OutcomeUnderflow
	// OutcomeLimitCycle: successive returns to the switching line
	// repeat (contraction ratio ≈ 1); the queue oscillates forever
	// with constant amplitude.
	OutcomeLimitCycle
	// OutcomeDiverging: successive returns grow (ratio > 1).
	OutcomeDiverging
	// OutcomeHorizon: the arc or time budget ran out first.
	OutcomeHorizon
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeConverged:
		return "converged"
	case OutcomeOverflow:
		return "overflow"
	case OutcomeUnderflow:
		return "underflow"
	case OutcomeLimitCycle:
		return "limit cycle"
	case OutcomeDiverging:
		return "diverging"
	case OutcomeHorizon:
		return "horizon reached"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// StronglyStable reports whether the outcome satisfies Definition 1
// (strong stability): the queue eventually stays strictly inside (0, B).
// A limit cycle strictly inside the strip is strongly stable in the
// paper's sense (trajectories ℓ5/ℓ7 of Fig. 3) even though it harms
// fairness and convergence.
func (o Outcome) StronglyStable() bool {
	return o == OutcomeConverged || o == OutcomeLimitCycle
}

// Segment is one closed-form arc of a stitched trajectory.
type Segment struct {
	// Region is the active rate law.
	Region Region
	// Kind is the closed-form family of this arc.
	Kind ArcKind
	// T0 is the global start time; Duration the arc length in time.
	T0, Duration float64
	// X0, Y0 is the entry state.
	X0, Y0 float64
}

// SwitchCrossing is one crossing of the switching line x + k·y = 0.
type SwitchCrossing struct {
	T, X, Y float64
	// To is the region being entered.
	To Region
}

// Extremum is a local extremum of x(t) (a y-zero along an arc).
type Extremum struct {
	T, X float64
	// Max is true for local maxima.
	Max bool
}

// Trajectory is a stitched piecewise-closed-form solution of the
// linearized switched system (paper eq. 9) with buffer enforcement.
type Trajectory struct {
	// Params echoes the generating parameters.
	Params Params
	// T, X, Y is the sampled polyline in global time.
	T, X, Y []float64
	// Segments lists the arcs in order.
	Segments []Segment
	// Crossings lists the switching-line crossings in order.
	Crossings []SwitchCrossing
	// Extrema lists the x-extrema encountered.
	Extrema []Extremum
	// Outcome tells how the trajectory ended.
	Outcome Outcome
	// MaxX, MinX are the extreme x excursions (shifted coordinates).
	MaxX, MinX float64
	// Rho is the measured per-round contraction ratio of switching-line
	// returns (0 when fewer than two same-side returns were seen).
	Rho float64
	// EndT, EndX, EndY is the final state.
	EndT, EndX, EndY float64
	// Violations tallies the runtime invariant violations observed by
	// the checker attached via SolveOptions.Invariants (zero when no
	// checker was attached or the run was clean).
	Violations invariant.Stats

	// launchEnd is the time through which boundary-resting samples are
	// excused from the extremes (0, or the warm-up duration).
	launchEnd float64
}

// MaxQueue and MinQueue return the queue extremes in original coordinates.
func (tr *Trajectory) MaxQueue() float64 { return tr.Params.Q0 + tr.MaxX }

// MinQueue returns the minimum queue length reached (original coordinates).
func (tr *Trajectory) MinQueue() float64 { return tr.Params.Q0 + tr.MinX }

// SolveOptions configures Solve. The zero value requests the paper's
// canonical start (−q0, 0) with defaults suitable for stability verdicts.
type SolveOptions struct {
	// Start overrides the initial state (x0, y0); nil means (−q0, 0).
	Start *[2]float64
	// WarmupFromRate, when non-nil, prepends the paper's warm-up phase:
	// the state starts at (−q0, N·μ−C) and slides along the empty-queue
	// boundary x = −q0 with dy/dt = a·q0 until y reaches 0 (§IV-C).
	// μ is the per-source initial rate; N·μ must not exceed C.
	WarmupFromRate *float64
	// MaxArcs bounds the number of stitched arcs (default 1e6).
	MaxArcs int
	// SamplesPerArc controls polyline resolution (default 64).
	SamplesPerArc int
	// ConvergeTol is the relative convergence tolerance: converged when
	// |x| < tol·q0 and |y| < tol·C (default 1e-3).
	ConvergeTol float64
	// ShortCircuit permits declaring convergence analytically once the
	// per-round contraction ratio is measured < 1 and the first-round
	// extrema passed the buffer check (default true; set
	// DisableShortCircuit to turn off).
	DisableShortCircuit bool
	// IgnoreBuffer disables overflow/underflow termination (pure phase
	// portrait of the unconstrained system).
	IgnoreBuffer bool
	// CycleTol is the relative tolerance for declaring a limit cycle
	// from the contraction ratio (default 1e-6).
	CycleTol float64
	// Invariants optionally attaches a runtime invariant checker: every
	// sampled point is checked for state finiteness, queue and rate
	// bounds, σ-branch consistency and a monotone sample clock. Under
	// the Strict policy the first violation aborts Solve with a
	// *invariant.InvariantError; under Record/Clamp the run continues
	// (Clamp projects samples back into the feasible strip) and the
	// tallies land in Trajectory.Violations. A Record/Clamp checker also
	// lets Solve integrate through parameter sets Params.Validate
	// rejects, recording the breakage instead of refusing the run.
	Invariants *invariant.Checker
	// Telemetry optionally attaches solver metrics (arc/crossing/outcome
	// counts, per-region dwell time, wall-clock histograms). Nil costs
	// one comparison per Solve.
	Telemetry *SolveMetrics
}

func (o SolveOptions) withDefaults(p Params) SolveOptions {
	if o.SamplesPerArc <= 0 {
		o.SamplesPerArc = 64
	}
	if o.Start == nil {
		o.Start = &[2]float64{-p.Q0, 0}
	}
	return o
}

// Solve stitches closed-form arcs of the linearized switched system from
// the initial state, enforcing the buffer strip and classifying the
// outcome: a Stitcher with the closed-form ArcStepper and an observer
// that samples each arc into the polyline. It is the engine behind every
// phase-portrait figure and sampled stability verdict in this
// repository. When SolveOptions.Invariants attaches a checker, every
// sampled point is self-checked at runtime and the violation tallies are
// returned in Trajectory.Violations.
func Solve(p Params, opts SolveOptions) (*Trajectory, error) {
	var began time.Time
	if opts.Telemetry != nil {
		began = time.Now()
	}
	tr, err := solve(p, opts)
	if tr != nil {
		tr.Violations = opts.Invariants.Stats()
	}
	if opts.Telemetry != nil {
		opts.Telemetry.observe(tr, time.Since(began))
	}
	return tr, err
}

func solve(p Params, opts SolveOptions) (*Trajectory, error) {
	chk := opts.Invariants
	if err := p.Validate(); err != nil {
		// A Strict checker turns the rejection into a structured
		// violation; Record/Clamp checkers log it and integrate through
		// the broken parameters so downstream guards can show the
		// consequences. Without a checker the historical contract holds.
		if !chk.Enabled() {
			return nil, err
		}
		if ferr := chk.Fail(PredParamsValid, 0, err.Error()); ferr != nil {
			return nil, ferr
		}
	}
	opts = opts.withDefaults(p)
	tr := &Trajectory{
		Params: p,
		MaxX:   math.Inf(-1),
		MinX:   math.Inf(1),
	}
	s := &sampler{tr: tr, guard: NewGuard(chk, p, !opts.IgnoreBuffer), samples: opts.SamplesPerArc}

	x, y := opts.Start[0], opts.Start[1]
	t := 0.0
	if opts.WarmupFromRate != nil {
		var err error
		if t, err = s.warmup(*opts.WarmupFromRate); err != nil {
			return nil, err
		}
		x, y = -p.Q0, 0
	}
	var z Stitcher
	v, err := z.Stitch(&p, StitchOptions{
		MaxArcs:             opts.MaxArcs,
		ConvergeTol:         opts.ConvergeTol,
		CycleTol:            opts.CycleTol,
		DisableShortCircuit: opts.DisableShortCircuit,
		IgnoreBuffer:        opts.IgnoreBuffer,
	}, t, x, y, ArcStepper{}, s)
	if err != nil {
		return nil, err
	}
	tr.Outcome, tr.Rho = v.Outcome, v.Rho
	tr.EndT, tr.EndX, tr.EndY = v.EndT, v.EndX, v.EndY
	return tr, nil
}

// sampler is Solve's Observer: it samples every arc into the polyline
// through the invariant guard (which may clamp samples) and lists the
// segments, crossings and extrema.
type sampler struct {
	tr      *Trajectory
	guard   Guard
	samples int
}

// warmup emits the empty-queue acceleration phase (§IV-C) from the
// per-source rate mu and returns its duration; it ends at (−q0, 0).
func (s *sampler) warmup(mu float64) (float64, error) {
	p := s.tr.Params
	t0, err := p.WarmupTime(mu)
	if err != nil {
		return 0, err
	}
	s.tr.launchEnd = t0
	y0 := float64(p.N)*mu - p.C
	accel := p.A() * p.Q0
	for i := 0; i <= s.samples; i++ {
		t := t0 * float64(i) / float64(s.samples)
		x, y, err := s.guard.Point(Increase, t, -p.Q0, y0+accel*t)
		if err != nil {
			return 0, err
		}
		s.point(t, x, y)
	}
	s.tr.Segments = append(s.tr.Segments, Segment{
		Region: Increase, Kind: ArcCritical /* degenerate boundary slide */, T0: 0, Duration: t0, X0: -p.Q0, Y0: y0,
	})
	return t0, nil
}

func (s *sampler) Arc(r Region, t, x, y float64, st *Step) error {
	if st.Extremum {
		s.tr.Extrema = append(s.tr.Extrema, Extremum{T: t + st.ExtT, X: st.ExtX, Max: st.ExtMax})
	}
	if st.Wall != 0 {
		return s.sample(r, st, t, st.WallT, x, y)
	}
	if err := s.sample(r, st, t, st.End, x, y); err != nil {
		return err
	}
	s.tr.Segments = append(s.tr.Segments, Segment{
		Region: r, Kind: st.Arc.Kind(), T0: t, Duration: st.End, X0: x, Y0: y,
	})
	return nil
}

func (s *sampler) Crossing(t, x, y float64, to Region) {
	s.tr.Crossings = append(s.tr.Crossings, SwitchCrossing{T: t, X: x, Y: y, To: to})
}

// Finish records the final state; the guard already saw it as the last
// sample of its arc.
func (s *sampler) Finish(_ Region, t, x, y float64) error {
	s.point(t, x, y)
	if tr := s.tr; len(tr.T) > 0 && math.IsInf(tr.MaxX, -1) {
		tr.MaxX, tr.MinX = tr.X[0], tr.X[0]
	}
	return nil
}

// StepFailed handles an unconstructible regime (e.g. a negative gain
// slipped past validation under Record/Clamp): it aborts a run without
// a checker with the plain error and a Strict run with a structured
// violation, and ends a Record/Clamp run at the horizon with the
// breakage tallied.
func (s *sampler) StepFailed(t float64, err error) error {
	chk := s.guard.chk
	if !chk.Enabled() {
		return err
	}
	return chk.Fail(PredRegimeValid, t, err.Error())
}

// sample appends the step's polyline on [0, tEnd] at the sampler's
// resolution, running every sample through the invariant guard. The
// entry state (x0, y0) is used verbatim for the first sample so that
// closed-form roundoff does not perturb recorded junction points, and
// the step's stop state (st.X, st.Y) for the last, so that a wall hit
// ends the polyline on the wall.
func (s *sampler) sample(r Region, st *Step, t0, tEnd, x0, y0 float64) error {
	x0, y0, err := s.guard.Point(r, t0, x0, y0)
	if err != nil {
		return err
	}
	s.point(t0, x0, y0)
	for i := 1; i <= s.samples; i++ {
		t := tEnd * float64(i) / float64(s.samples)
		x, y := st.X, st.Y
		if i < s.samples {
			x, y = st.Arc.At(t)
		}
		x, y, err := s.guard.Point(r, t0+t, x, y)
		if err != nil {
			return err
		}
		s.point(t0+t, x, y)
	}
	return nil
}

// point appends one polyline sample and folds it into the extremes.
func (s *sampler) point(t, x, y float64) {
	tr := s.tr
	// Skip duplicate junction points.
	if n := len(tr.T); n > 0 && tr.T[n-1] == t {
		return
	}
	tr.T = append(tr.T, t)
	tr.X = append(tr.X, x)
	tr.Y = append(tr.Y, y)
	// MaxX/MinX measure the excursion after launch: the canonical start
	// rests on the empty-queue boundary x = −q0 (as does the warm-up
	// slide), which Definition 1 excuses, so boundary-resting launch
	// samples do not count toward the extremes.
	if x <= -tr.Params.Q0 && t <= tr.launchEnd {
		return
	}
	if x > tr.MaxX {
		tr.MaxX = x
	}
	if x < tr.MinX {
		tr.MinX = x
	}
}
