// Package serve is the long-lived serving layer of the repository: an
// HTTP job service (cmd/bcnd) that accepts simulation, sweep and
// phase-trajectory requests as validated JSON job specs, executes them
// on a supervised worker pool, and stays healthy under overload and
// partial failure.
//
// The robustness discipline mirrors the paper's own subject. Theorem 1
// is a "never overflow" criterion — keep the queue strictly inside
// (0, B) under bursty arrivals — and the serving layer applies the same
// rule to itself: the admission queue is bounded, requests beyond the
// bound are shed *before* they can overflow memory or starve in-flight
// work, and shed responses carry explicit feedback (429, Retry-After,
// live queue depth and utilization) in the spirit of RCP-style explicit
// rate feedback, so clients back off by instruction instead of by
// timeout. The other guarantees:
//
//   - Supervised execution: every job runs through sweep.One, so a
//     poisoned job (panic, hang, strict invariant abort) kills the job,
//     never the pool.
//   - Deadlines: each job gets a context deadline (spec timeout_ms
//     capped by the server maximum) propagated into netsim/sweep/solve.
//   - Circuit breaker: parameter regions that repeatedly abort under the
//     strict invariant policy are quarantined for a cooldown, failing
//     fast instead of burning workers on known-bad inputs.
//   - Idempotent dedup: specs are keyed by a runstate content hash;
//     resubmitting a completed job returns the journaled artifact
//     byte-identically, and concurrent duplicates coalesce onto one
//     execution.
//   - Graceful drain: Drain stops admission while accepted jobs finish,
//     so a SIGTERM never drops work the server said yes to.
package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"bcnphase/internal/canonjson"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/faults"
	"bcnphase/internal/invariant"
	"bcnphase/internal/netsim"
	"bcnphase/internal/runstate"
)

// ErrSpec wraps every job-spec validation failure; handlers map it to
// HTTP 400.
var ErrSpec = errors.New("serve: invalid job spec")

// Job kinds accepted by the service.
const (
	// KindSolve solves one stitched closed-form trajectory (core.Solve).
	KindSolve = "solve"
	// KindSweep evaluates a (Gi, Gd) gain-plane grid (internal/sweep).
	KindSweep = "sweep"
	// KindNetsim runs the packet-level simulator (internal/netsim),
	// optionally with injected faults (internal/faults).
	KindNetsim = "netsim"
	// KindShard evaluates one shard of a cluster gain-plane sweep
	// (internal/cluster): a subset of a grid's points, dispatched by a
	// bcnd coordinator. Shard jobs ride the same admission control,
	// supervision, dedup and journal as every other kind.
	KindShard = "shard"
)

// Limits that keep a single job's resource appetite bounded no matter
// what the client asks for.
const (
	// MaxSweepSteps caps the per-axis resolution of a sweep job
	// (MaxSweepSteps² grid points).
	MaxSweepSteps = 32
	// MaxNetsimDuration caps the simulated time of a netsim job in
	// seconds.
	MaxNetsimDuration = 5.0
	// MaxNetsimSources caps the source count of a netsim job.
	MaxNetsimSources = 1024
	// DefaultMaxBodyBytes bounds the request body the decoder will read.
	DefaultMaxBodyBytes = 1 << 20
)

// Spec is one job request. Exactly one of Solve, Sweep, Netsim must be
// set, matching Kind.
type Spec struct {
	// Kind selects the job type: "solve", "sweep" or "netsim".
	Kind string `json:"kind"`
	// TimeoutMs is the requested wall-clock budget in milliseconds; 0
	// uses the server default, and the server maximum always caps it.
	// The timeout is an execution knob: it does not change the result,
	// so it is excluded from the job's dedup identity.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Invariants is the runtime invariant policy for the job ("off",
	// "record", "strict", "clamp"); empty uses the server default.
	// Unlike the timeout it shapes the result, so it is part of the
	// dedup identity.
	Invariants string `json:"invariants,omitempty"`

	Solve  *SolveSpec         `json:"solve,omitempty"`
	Sweep  *SweepSpec         `json:"sweep,omitempty"`
	Netsim *NetsimSpec        `json:"netsim,omitempty"`
	Shard  *cluster.ShardSpec `json:"shard,omitempty"`
}

// SolveSpec requests one stitched trajectory of the switched fluid
// model.
type SolveSpec struct {
	// Params is the full parameter set. It must pass core.Params
	// validation unless the spec explicitly names a non-off invariant
	// policy: under record/clamp core.Solve integrates through broken
	// parameters while tallying the breakage, and under strict it
	// aborts with a structured violation — which is exactly what feeds
	// the serving layer's circuit breaker.
	Params core.Params `json:"params"`
	// Start optionally overrides the initial state (x0, y0) in shifted
	// coordinates; nil means the canonical (−q0, 0).
	Start *[2]float64 `json:"start,omitempty"`
	// MaxArcs optionally bounds the stitched arc count (0 = default).
	MaxArcs int `json:"max_arcs,omitempty"`
}

// SweepSpec requests a gain-plane stability map, the serving-layer
// equivalent of cmd/bcnsweep's grid.
type SweepSpec struct {
	// BOverQ0 sets the buffer as a multiple of q0 (must leave B > q0).
	BOverQ0 float64 `json:"b_over_q0"`
	// GiLo, GiHi, GdLo, GdHi bound the geometric gain axes.
	GiLo float64 `json:"gi_lo"`
	GiHi float64 `json:"gi_hi"`
	GdLo float64 `json:"gd_lo"`
	GdHi float64 `json:"gd_hi"`
	// Steps is the per-axis resolution (2..MaxSweepSteps).
	Steps int `json:"steps"`
}

// NetsimSpec requests a packet-level dumbbell simulation.
type NetsimSpec struct {
	N            int     `json:"n"`
	Capacity     float64 `json:"capacity"`
	LineRate     float64 `json:"line_rate,omitempty"`
	FrameBits    float64 `json:"frame_bits,omitempty"`
	BufferBits   float64 `json:"buffer_bits"`
	Q0           float64 `json:"q0"`
	W            float64 `json:"w,omitempty"`
	Pm           float64 `json:"pm,omitempty"`
	Ru           float64 `json:"ru,omitempty"`
	Gi           float64 `json:"gi,omitempty"`
	Gd           float64 `json:"gd,omitempty"`
	InitialRate  float64 `json:"initial_rate,omitempty"`
	PropDelaySec float64 `json:"prop_delay_sec,omitempty"`
	DurationSec  float64 `json:"duration_sec"`
	Seed         int64   `json:"seed,omitempty"`
	Pause        bool    `json:"pause,omitempty"`
	// Faults optionally injects the deterministic fault plan; it must
	// pass faults.Config validation.
	Faults *faults.Config `json:"faults,omitempty"`
}

// DecodeSpec reads one job spec from r, rejecting unknown fields,
// anything but whitespace after the spec, bodies beyond maxBytes and
// anything that fails Validate. It reads the body once; json.Marshal's
// form of a solve, sweep or shard spec is decoded by the canonical
// codec, and every other body by encoding/json, with the same result
// either way. It never panics on arbitrary input (fuzzed in
// fuzz_test.go); every failure wraps ErrSpec.
func DecodeSpec(r io.Reader, maxBytes int64) (Spec, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	buf := canonjson.Borrow()
	defer canonjson.Return(buf)
	body, err := canonjson.ReadBody(buf, r, maxBytes)
	if err != nil {
		// Double-wrap so the typed *http.MaxBytesError of an oversized
		// body stays reachable via errors.As — the handler maps it to
		// 413, not a generic 400.
		return Spec{}, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	sp, ok := readSpec(body)
	if !ok {
		var ref Spec
		if err := canonjson.DecodeStrict(body, &ref); err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrSpec, err)
		}
		sp = ref
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate checks the spec's structural and physical feasibility.
func (sp Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
	}
	if _, err := invariant.ParsePolicy(sp.Invariants); err != nil {
		return fail("%v", err)
	}
	if sp.TimeoutMs < 0 {
		return fail("timeout_ms=%d must be non-negative", sp.TimeoutMs)
	}
	set := 0
	if sp.Solve != nil {
		set++
	}
	if sp.Sweep != nil {
		set++
	}
	if sp.Netsim != nil {
		set++
	}
	if sp.Shard != nil {
		set++
	}
	if set != 1 {
		return fail("exactly one of solve, sweep, netsim, shard must be set (got %d)", set)
	}
	switch sp.Kind {
	case KindSolve:
		if sp.Solve == nil {
			return fail("kind %q requires the solve body", sp.Kind)
		}
		pol, _ := invariant.ParsePolicy(sp.Invariants)
		return sp.Solve.validate(pol)
	case KindSweep:
		if sp.Sweep == nil {
			return fail("kind %q requires the sweep body", sp.Kind)
		}
		return sp.Sweep.validate()
	case KindNetsim:
		if sp.Netsim == nil {
			return fail("kind %q requires the netsim body", sp.Kind)
		}
		return sp.Netsim.validate()
	case KindShard:
		if sp.Shard == nil {
			return fail("kind %q requires the shard body", sp.Kind)
		}
		if sp.Invariants != "" {
			// The grid's Invariants field is part of the shard's dedup
			// identity; a second spec-level policy would be ambiguous.
			return fail("shard jobs carry the invariant policy in the grid, not the spec")
		}
		if err := sp.Shard.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrSpec, err)
		}
		return nil
	default:
		return fail("unknown kind %q (want solve, sweep, netsim or shard)", sp.Kind)
	}
}

func (s *SolveSpec) validate(pol invariant.Policy) error {
	if err := s.Params.Validate(); err != nil && pol == invariant.Off {
		return fmt.Errorf("%w: solve: %v", ErrSpec, err)
	}
	// Even under a checked policy the raw numbers must be finite-ish
	// enough to hash and bucket deterministically.
	for _, v := range []float64{s.Params.C, s.Params.Ru, s.Params.Gi, s.Params.Gd, s.Params.W, s.Params.Pm, s.Params.Q0, s.Params.B, s.Params.Qsc} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: solve: non-finite parameter %v", ErrSpec, v)
		}
	}
	if s.Start != nil {
		if !finite(s.Start[0]) || !finite(s.Start[1]) {
			return fmt.Errorf("%w: solve: start must be finite, got (%v, %v)", ErrSpec, s.Start[0], s.Start[1])
		}
	}
	if s.MaxArcs < 0 {
		return fmt.Errorf("%w: solve: max_arcs=%d must be non-negative", ErrSpec, s.MaxArcs)
	}
	return nil
}

func (s *SweepSpec) validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: sweep: %s", ErrSpec, fmt.Sprintf(format, args...))
	}
	if s.Steps < 2 || s.Steps > MaxSweepSteps {
		return fail("steps=%d must be in [2, %d]", s.Steps, MaxSweepSteps)
	}
	for _, b := range []struct {
		name string
		v    float64
	}{
		{"b_over_q0", s.BOverQ0},
		{"gi_lo", s.GiLo}, {"gi_hi", s.GiHi},
		{"gd_lo", s.GdLo}, {"gd_hi", s.GdHi},
	} {
		if !finite(b.v) || b.v <= 0 {
			return fail("%s=%v must be positive and finite", b.name, b.v)
		}
	}
	if s.BOverQ0 <= 1 {
		return fail("b_over_q0=%v leaves B <= q0", s.BOverQ0)
	}
	return nil
}

func (s *NetsimSpec) validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: netsim: %s", ErrSpec, fmt.Sprintf(format, args...))
	}
	if s.N <= 0 || s.N > MaxNetsimSources {
		return fail("n=%d must be in [1, %d]", s.N, MaxNetsimSources)
	}
	if !finite(s.DurationSec) || s.DurationSec <= 0 || s.DurationSec > MaxNetsimDuration {
		return fail("duration_sec=%v must be in (0, %v]", s.DurationSec, MaxNetsimDuration)
	}
	if !finite(s.PropDelaySec) || s.PropDelaySec < 0 {
		return fail("prop_delay_sec=%v must be non-negative and finite", s.PropDelaySec)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: netsim: %v", ErrSpec, err)
		}
	}
	// Everything else (capacity, buffer, gains, rates) goes through the
	// simulator's own Config.Validate so the service and the CLI agree
	// on what a runnable scenario is.
	cfg := s.config(invariant.Off)
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: netsim: %v", ErrSpec, err)
	}
	return nil
}

// config materializes the netsim configuration, filling the same
// defaults cmd/bcnsim would.
func (s *NetsimSpec) config(pol invariant.Policy) netsim.Config {
	cfg := netsim.Config{
		N: s.N, Capacity: s.Capacity, LineRate: s.LineRate,
		FrameBits: s.FrameBits, BufferBits: s.BufferBits,
		PropDelay:   netsim.FromSeconds(s.PropDelaySec),
		InitialRate: s.InitialRate,
		BCN:         true,
		Q0:          s.Q0, W: s.W, Pm: s.Pm, Ru: s.Ru, Gi: s.Gi, Gd: s.Gd,
		Seed:       s.Seed,
		Faults:     s.Faults,
		Invariants: pol,
	}
	if cfg.LineRate == 0 {
		cfg.LineRate = cfg.Capacity
	}
	if cfg.FrameBits == 0 {
		cfg.FrameBits = 12000
	}
	if cfg.W == 0 {
		cfg.W = core.DefaultW
	}
	if cfg.Pm == 0 {
		cfg.Pm = 0.2
	}
	if cfg.Ru == 0 {
		cfg.Ru = core.DefaultRu
	}
	if cfg.Gi == 0 {
		cfg.Gi = 0.05
	}
	if cfg.Gd == 0 {
		cfg.Gd = core.DefaultGd
	}
	if cfg.InitialRate == 0 {
		cfg.InitialRate = cfg.Capacity / float64(2*cfg.N)
	}
	if s.Pause {
		cfg.Pause = true
		cfg.Qsc = 0.75 * cfg.BufferBits
		cfg.PauseDuration = netsim.FromSeconds(50e-6)
	}
	return cfg
}

// specIdentity is the hashed dedup identity of a job: everything that
// shapes the artifact bytes, nothing that does not. Format bumps when
// any artifact layout changes, invalidating old journal entries instead
// of replaying them in the wrong shape.
type specIdentity struct {
	Format     int
	Kind       string
	Invariants string
	Solve      *SolveSpec
	Sweep      *SweepSpec
	Netsim     *NetsimSpec
	// Shard is omitted when nil so the identity bytes (and therefore the
	// journal keys) of every pre-existing kind are unchanged.
	Shard *cluster.ShardSpec `json:"Shard,omitempty"`
}

// artifactFormat versions every artifact layout served by this package.
// Format 2: shard results carry the row_sums/digest integrity envelope
// (cluster.SignShardResult), so pre-digest journal artifacts re-execute
// instead of replaying unsigned.
// Format 3: solve and sweep artifacts may come from the analytic engine
// (exact extrema, engine tag), so the engine mode joins the identity
// and pre-engine journal artifacts re-execute instead of replaying in
// the sampled shape.
// Format 4: sweep artifacts carry map.csv rows (cluster.CSVHeader) from
// the analytic engine under every policy, with violations counted at
// exact knots, and analytic=off means RK45; no sampled sweep replays as
// a knot-checked one.
// Format 5: the analytic knob is gone. Solve jobs under the off policy
// and every sweep row come from the closed-form engine, so the engine
// mode leaves the identity, a spec naming "analytic" is refused as an
// unknown field, and no RK45 or sampled artifact replays as a
// closed-form one.
// Format 6: a wall hit stops the trajectory on the wall, so wall rows'
// max_q_bits and a wall-hit solve's end state sit on the wall exactly.
const artifactFormat = 6

// Key returns the spec's content-hash dedup key: the hex SHA-256 of the
// canonical identity, json.Marshal's bytes for specIdentity. Execution
// knobs (timeout_ms) are excluded, so the same scientific request
// always maps to the same artifact; the invariant policy is included
// because it changes results.
func (sp Spec) Key() (string, error) {
	id, err := sp.identity()
	if err != nil {
		return "", err
	}
	// The stack buffer holds the identity of a solve, a sweep or a
	// 32-point shard.
	var buf [2048]byte
	if b, ok := appendIdentity(buf[:0], &id); ok {
		return canonjson.Hash(b), nil
	}
	return runstate.HashJSON(id)
}

// identity is the spec's hashed dedup identity.
func (sp Spec) identity() (specIdentity, error) {
	pol, err := invariant.ParsePolicy(sp.Invariants)
	if err != nil {
		return specIdentity{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return specIdentity{
		Format:     artifactFormat,
		Kind:       sp.Kind,
		Invariants: pol.String(), // normalize "" and "none" to "off"
		Solve:      sp.Solve,
		Sweep:      sp.Sweep,
		Netsim:     sp.Netsim,
		Shard:      sp.Shard,
	}, nil
}

// Timeout resolves the job's wall-clock budget against the server's
// default and cap.
func (sp Spec) Timeout(def, max time.Duration) time.Duration {
	d := time.Duration(sp.TimeoutMs) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// RegionKey buckets the spec's parameter region for the circuit
// breaker: jobs whose gains land in the same binary-log buckets share a
// quarantine, so one poisoned corner of the gain plane is isolated
// without blacklisting unrelated work. The key is coarse on purpose —
// the breaker protects capacity, not correctness.
func (sp Spec) RegionKey() string {
	switch sp.Kind {
	case KindSolve:
		return fmt.Sprintf("solve:gi=%d:gd=%d:n=%d", logBucket(sp.Solve.Params.Gi), logBucket(sp.Solve.Params.Gd), sp.Solve.Params.N)
	case KindSweep:
		return fmt.Sprintf("sweep:gi=%d..%d:gd=%d..%d", logBucket(sp.Sweep.GiLo), logBucket(sp.Sweep.GiHi), logBucket(sp.Sweep.GdLo), logBucket(sp.Sweep.GdHi))
	case KindNetsim:
		return fmt.Sprintf("netsim:gi=%d:gd=%d:n=%d", logBucket(sp.Netsim.Gi), logBucket(sp.Netsim.Gd), sp.Netsim.N)
	case KindShard:
		g := sp.Shard.Grid
		return fmt.Sprintf("shard:gi=%d..%d:gd=%d..%d", logBucket(g.GiLo), logBucket(g.GiHi), logBucket(g.GdLo), logBucket(g.GdHi))
	default:
		return "unknown"
	}
}

// logBucket maps a positive value to its binary-log bucket; zero and
// non-finite values get sentinel buckets so RegionKey never panics on a
// spec that slipped past validation.
func logBucket(v float64) int {
	if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MinInt32
	}
	return int(math.Floor(math.Log2(v)))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
