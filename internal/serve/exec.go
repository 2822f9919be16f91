package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/faults"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
	"bcnphase/internal/netsim"
	"bcnphase/internal/sweep"
)

// Artifact is the completed-job payload. Its JSON encoding is the
// served artifact and must be deterministic for a given spec — struct
// field order is fixed and no timestamps or host state appear — so a
// resubmitted job can be answered byte-identically from the journal.
type Artifact struct {
	Key        string               `json:"key"`
	Kind       string               `json:"kind"`
	Invariants string               `json:"invariants"`
	Solve      *SolveResult         `json:"solve,omitempty"`
	Sweep      *SweepResult         `json:"sweep,omitempty"`
	Netsim     *NetsimResult        `json:"netsim,omitempty"`
	Shard      *cluster.ShardResult `json:"shard,omitempty"`
}

// SolveResult summarizes one stitched trajectory.
type SolveResult struct {
	Case           string  `json:"case"`
	Outcome        string  `json:"outcome"`
	StronglyStable bool    `json:"strongly_stable"`
	LinearStable   bool    `json:"linear_stable"`
	Theorem1OK     bool    `json:"theorem1_ok"`
	Theorem1Bound  float64 `json:"theorem1_bound_bits"`
	MaxQueueBits   float64 `json:"max_queue_bits"`
	MinQueueBits   float64 `json:"min_queue_bits"`
	Rho            float64 `json:"rho"`
	Crossings      int     `json:"crossings"`
	Violations     uint64  `json:"violations"`
	FirstViolation string  `json:"first_violation,omitempty"`
	// Engine tags which engine produced the verdict: "analytic" or
	// "rk45" (the closed-form engine's two paths); empty for the classic
	// sampled core.Solve, which serves solve jobs under a non-off
	// invariant policy (they may integrate through parameters the
	// engine refuses). Every sweep and shard row comes from the engine.
	Engine string `json:"engine,omitempty"`
}

// SweepResult carries the gain-plane map as rendered CSV rows plus the
// aggregate tallies. Header and rows are map.csv's (cluster.CSVHeader):
// the same bytes bcnsweep prints for the same grid.
type SweepResult struct {
	Header     string   `json:"header"`
	Rows       []string `json:"rows"`
	Points     int      `json:"points"`
	Failed     int      `json:"failed"`
	Violations uint64   `json:"violations"`
}

// NetsimResult summarizes one packet-level run.
type NetsimResult struct {
	Events         uint64       `json:"events"`
	SimSeconds     float64      `json:"sim_seconds"`
	Throughput     float64      `json:"throughput_bps"`
	Utilization    float64      `json:"utilization"`
	MaxQueueBits   float64      `json:"max_queue_bits"`
	MinQueueAfter  float64      `json:"min_queue_after_fill_bits"`
	DroppedFrames  uint64       `json:"dropped_frames"`
	PausesSent     uint64       `json:"pauses_sent"`
	JainIndex      float64      `json:"jain_index"`
	MalformedMsgs  uint64       `json:"malformed_msgs"`
	Faults         faults.Stats `json:"faults"`
	Violations     uint64       `json:"violations"`
	FirstViolation string       `json:"first_violation,omitempty"`
}

// execHook, when set, observes every job just as it starts executing
// on a worker goroutine; the chaos tests use it to inject panics and
// stalls into otherwise-healthy jobs. It runs inside sweep.One's
// supervision, so whatever it does stays contained. Atomic because an
// abandoned (deadline-exceeded) job goroutine may still be starting
// while a test swaps the hook.
var execHook atomic.Pointer[func(Spec)]

// execute runs one validated spec to its artifact bytes under the
// job's context deadline.
func (s *Server) execute(ctx context.Context, sp Spec, key string) ([]byte, error) {
	art, err := s.run(ctx, sp, key)
	if err != nil {
		return nil, err
	}
	return encodeArtifact(art)
}

// run runs one validated spec to its artifact. Supervision (panic
// recovery, abandonment of a hung evaluation) comes from sweep.One, so
// run can be handed any parameter set that passed validation without
// risking the caller's goroutine. A strict invariant abort surfaces as
// an *invariant.InvariantError for the breaker to classify. The spec's
// policy is the one it was keyed under: the submit path fills in the
// server default before hashing.
func (s *Server) run(ctx context.Context, sp Spec, key string) (*Artifact, error) {
	pol, err := invariant.ParsePolicy(sp.Invariants)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if sp.Kind == KindShard {
		// A shard's policy travels inside the grid (it is part of the
		// grid fingerprint), so every worker in a cluster evaluates rows
		// the same way regardless of its local server default.
		pol = sp.Shard.Grid.Policy()
	}
	return sweep.One(ctx, sp, func(ctx context.Context, sp Spec) (*Artifact, error) {
		if h := execHook.Load(); h != nil {
			(*h)(sp)
		}
		art := &Artifact{Key: key, Kind: sp.Kind, Invariants: pol.String()}
		switch sp.Kind {
		case KindSolve:
			res, err := runSolve(sp.Solve, pol, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Solve = res
		case KindSweep:
			res, err := runSweep(ctx, sp.Sweep, pol, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Sweep = res
		case KindNetsim:
			res, err := runNetsim(ctx, sp.Netsim, pol, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Netsim = res
		case KindShard:
			res, err := runShard(ctx, sp.Shard, s.jobm)
			if err != nil {
				return nil, err
			}
			art.Shard = res
		default:
			return nil, fmt.Errorf("%w: unknown kind %q", ErrSpec, sp.Kind)
		}
		return art, nil
	}, sweep.Options{PointTimeout: sp.Timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)})
}

func runSolve(s *SolveSpec, pol invariant.Policy, jm jobMetrics) (*SolveResult, error) {
	// A checked solve job keeps the classic sampled path below: under
	// record or clamp it must integrate through parameters that
	// Params.Validate rejects, which the analytic engine refuses.
	if pol == invariant.Off {
		return runSolveAnalytic(s, jm)
	}
	// Solve first: under a strict policy invalid physics must surface as
	// the checker's structured abort (the breaker's signal), not as a
	// plain validation error.
	tr, err := core.Solve(s.Params, core.SolveOptions{
		Start:      s.Start,
		MaxArcs:    s.MaxArcs,
		Invariants: invariant.NewPolicy(pol),
		Telemetry:  jm.solve,
	})
	if err != nil {
		return nil, err
	}
	res := &SolveResult{
		Case:           s.Params.Case().String(),
		Outcome:        tr.Outcome.String(),
		StronglyStable: tr.Outcome.StronglyStable(),
		MaxQueueBits:   tr.MaxQueue(),
		MinQueueBits:   tr.MinQueue(),
		Rho:            tr.Rho,
		Crossings:      len(tr.Crossings),
		Violations:     tr.Violations.Total,
		FirstViolation: tr.Violations.FirstPredicate(),
	}
	// The linear/Theorem-1 verdicts only exist for valid parameters; a
	// record/clamp run over broken physics reports them zero-valued.
	if s.Params.Validate() == nil {
		res.LinearStable = linear.Stable(&s.Params)
		res.Theorem1OK = core.Theorem1Satisfied(s.Params)
		res.Theorem1Bound = core.Theorem1Bound(s.Params)
	}
	return res, nil
}

// runSolveAnalytic answers a solve job from the sampling-free engine.
// It only runs under the off invariant policy, which guarantees the
// parameters passed core validation at spec time — so the linear and
// Theorem 1 columns always exist and need no trajectory to compute.
func runSolveAnalytic(s *SolveSpec, jm jobMetrics) (*SolveResult, error) {
	res, err := analytic.SolveOne(s.Params, analytic.Options{
		Start:   s.Start,
		MaxArcs: s.MaxArcs,
		Metrics: jm.analytic,
	})
	if err != nil {
		return nil, err
	}
	return &SolveResult{
		Case:           s.Params.Case().String(),
		Outcome:        res.Outcome.String(),
		StronglyStable: res.Outcome.StronglyStable(),
		LinearStable:   linear.Stable(&s.Params),
		Theorem1OK:     core.Theorem1Satisfied(s.Params),
		Theorem1Bound:  core.Theorem1Bound(s.Params),
		MaxQueueBits:   res.MaxQueue(s.Params),
		MinQueueBits:   res.MinQueue(s.Params),
		Rho:            res.Rho,
		Crossings:      res.Crossings,
		Engine:         res.Path.String(),
	}, nil
}

// runSweep answers a sweep job through the canonical row evaluator: the
// spec names a cluster.GainGrid (same fields), and its rows are the
// map.csv rows bcnsweep and the cluster print for that grid.
func runSweep(ctx context.Context, s *SweepSpec, pol invariant.Policy, jm jobMetrics) (*SweepResult, error) {
	grid := cluster.GainGrid{
		BOverQ0: s.BOverQ0,
		GiLo:    s.GiLo, GiHi: s.GiHi,
		GdLo: s.GdLo, GdHi: s.GdHi,
		Steps:      s.Steps,
		Invariants: pol.String(),
	}
	results := evalRows(ctx, grid, grid.Points(), jm)
	res := &SweepResult{Header: cluster.CSVHeader, Points: len(results)}
	for _, r := range results {
		if r.Err != nil {
			// A strict abort anywhere in the grid is the job's verdict:
			// the region is quarantinable, and a partial map under strict
			// policy would be misleading.
			if _, ok := invariant.StrictAbort(r.Err); ok {
				return nil, r.Err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Failed++
			continue
		}
		res.Rows = append(res.Rows, r.Value.CSV)
		res.Violations += r.Value.Violations
	}
	return res, nil
}

// execBatchSize is the span length batched evaluations hand one worker
// slot at a time: long enough to amortize a warm Solver and the span's
// supervision cost, short enough that cancellation and work spread stay
// responsive.
const execBatchSize = 64

// evalRows evaluates grid points in batched spans through
// cluster.GainGrid.EvalBatch, so one warm Solver serves a whole span.
// The job already occupies one worker slot; a modest inner pool keeps a
// single job from monopolizing the host while the service runs other
// work.
func evalRows(ctx context.Context, grid cluster.GainGrid, pts []cluster.GainPoint, jm jobMetrics) []sweep.Result[cluster.GainPoint, cluster.Row] {
	em := cluster.EvalMetrics{Analytic: jm.analytic}
	results, _ := sweep.RunBatched(ctx, pts, execBatchSize,
		func(ctx context.Context, pts []cluster.GainPoint, out []cluster.Row) error {
			return grid.EvalBatch(ctx, pts, out, em)
		}, sweep.Options{Workers: 2, ContinueOnError: true, Metrics: jm.sweep})
	return results
}

// runShard evaluates one cluster sweep shard through the shared
// canonical row evaluator (cluster.GainGrid.EvalBatch) — the same code
// path cmd/bcnsweep runs locally, which is what lets the coordinator
// promise a byte-identical merged map. Every point must produce a row:
// a shard with holes is worthless to the merge, so the first error
// (including a strict invariant abort, which feeds the worker's own
// region breaker) fails the whole job and the coordinator re-assigns
// it.
func runShard(ctx context.Context, s *cluster.ShardSpec, jm jobMetrics) (*cluster.ShardResult, error) {
	results := evalRows(ctx, s.Grid, s.Points, jm)
	res := &cluster.ShardResult{Index: s.Index, Rows: make([]cluster.Row, len(results))}
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		res.Rows[i] = r.Value
	}
	// Sign the result where it was computed: the per-row checksums and
	// shard digest let the coordinator reject anything corrupted between
	// this goroutine and its merge.
	cluster.SignShardResult(res)
	return res, nil
}

func runNetsim(ctx context.Context, s *NetsimSpec, pol invariant.Policy, jm jobMetrics) (*NetsimResult, error) {
	cfg := s.config(pol)
	cfg.Metrics = jm.netsim
	net, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := net.RunContext(ctx, s.DurationSec)
	if err != nil {
		return nil, err
	}
	return &NetsimResult{
		Events:         res.Events,
		SimSeconds:     res.SimSeconds,
		Throughput:     res.Throughput,
		Utilization:    res.Utilization,
		MaxQueueBits:   res.MaxQueueBits,
		MinQueueAfter:  res.MinQueueAfterFill,
		DroppedFrames:  res.DroppedFrames,
		PausesSent:     res.PausesSent,
		JainIndex:      res.JainIndex,
		MalformedMsgs:  res.MalformedMsgs,
		Faults:         res.Faults,
		Violations:     res.Invariants.Total,
		FirstViolation: res.Invariants.FirstPredicate(),
	}, nil
}
