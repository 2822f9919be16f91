package cluster

import "bcnphase/internal/telemetry"

// Metrics is the coordinator's cluster-level instrument set, registered
// on the coordinator's registry and served by its /metrics endpoint.
// The cluster series answer the questions the single-node serve_*
// family cannot: how many points the whole fleet has merged, how often
// shards had to move, and which workers are quarantined.
type Metrics struct {
	// Points counts fresh points merged into the map (monotonic).
	Points *telemetry.Counter
	// ReplayedPoints counts points answered from the coordinator journal
	// instead of being dispatched.
	ReplayedPoints *telemetry.Counter
	// ShardsDone counts shards whose done marker has been journaled.
	ShardsDone *telemetry.Counter
	// Reassigned counts shard moves off their planned worker: lease
	// expiry, dispatch failure, worker loss, or redistribution of a dead
	// worker's queue.
	Reassigned *telemetry.Counter
	// Stolen counts shards taken by an idle worker from another worker's
	// queue (the work-stealing path, a subset of healthy completions).
	Stolen *telemetry.Counter
	// OrphanShards counts journal-replay shards whose rows were present
	// without a final done marker (or vice versa) and were re-executed.
	OrphanShards *telemetry.Counter
	// StrayRecords counts journal records that belong to neither the
	// grid's points nor its shard markers (stale fingerprints).
	StrayRecords *telemetry.Counter
	// Retries counts dispatch attempts beyond the first.
	Retries *telemetry.Counter
	// WorkerErrors counts failed dispatch attempts by worker.
	WorkerErrors *telemetry.CounterVec
	// Sweeps and SweepsShed count grid submissions accepted and shed by
	// the coordinator's admission control.
	Sweeps     *telemetry.Counter
	SweepsShed *telemetry.Counter
	// BreakerTransitions counts per-worker breaker state changes by
	// destination state; BreakerState is the live per-worker state
	// (0 closed, 1 half-open, 2 open).
	BreakerTransitions *telemetry.CounterVec
	BreakerState       *telemetry.GaugeVec
	// AuditSampled counts freshly completed shards re-executed on a
	// second worker for a bit-exact comparison; AuditMatched counts the
	// ones that agreed, AuditDivergent the ones that did not (with
	// AuditDivergentRows the row-level disagreement count), and
	// AuditInconclusive the divergences no third worker could settle.
	// AuditSkipped counts sampled shards with no second worker available.
	AuditSampled       *telemetry.Counter
	AuditMatched       *telemetry.Counter
	AuditDivergent     *telemetry.Counter
	AuditDivergentRows *telemetry.Counter
	AuditInconclusive  *telemetry.Counter
	AuditSkipped       *telemetry.Counter
	// AuditQuarantined counts workers quarantined after losing a tiebreak
	// quorum; AuditRevoked counts their unaudited merged shards that were
	// revoked and re-executed.
	AuditQuarantined *telemetry.Counter
	AuditRevoked     *telemetry.Counter
	// DigestFailures counts shard results rejected on receipt because
	// their rows did not match their signed checksums (in-flight
	// corruption; retried as transient).
	DigestFailures *telemetry.Counter
	// InvalidRows counts journal-replay point records whose CRC was valid
	// but whose payload failed row re-validation (schema drift); they are
	// re-executed and superseded, never resurrected.
	InvalidRows *telemetry.Counter
	// WorkerUp is 1 while a worker's heartbeats are healthy.
	WorkerUp *telemetry.GaugeVec
	// PointsPerSecond is the fresh-point merge rate of the last sweep.
	PointsPerSecond *telemetry.Gauge
	// ShardSeconds is the wall-clock latency of one successful shard
	// dispatch (queue, execution and transfer included).
	ShardSeconds *telemetry.Histogram
}

// NewMetrics registers the cluster family on reg (nil-safe: a nil
// registry yields no-op instruments).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Points:         reg.Counter("cluster_points_total", "fresh grid points merged into the map"),
		ReplayedPoints: reg.Counter("cluster_replayed_points_total", "points answered from the coordinator journal"),
		ShardsDone:     reg.Counter("cluster_shards_done_total", "shards completed and journaled with a done marker"),
		Reassigned:     reg.Counter("cluster_reassigned_shards_total", "shards re-assigned after lease expiry, dispatch failure or worker loss"),
		Stolen:         reg.Counter("cluster_stolen_shards_total", "shards stolen from another worker's queue"),
		OrphanShards:   reg.Counter("cluster_journal_orphan_shards_total", "journal shards missing their done marker, surfaced and re-executed"),
		StrayRecords:   reg.Counter("cluster_journal_stray_records_total", "journal records outside the grid's key space (stale fingerprints)"),
		Retries:        reg.Counter("cluster_dispatch_retries_total", "shard dispatch attempts beyond the first"),
		WorkerErrors:   reg.CounterVec("cluster_worker_errors_total", "failed shard dispatch attempts by worker", "worker"),
		Sweeps:         reg.Counter("cluster_sweeps_total", "grid submissions accepted by the coordinator"),
		SweepsShed:     reg.Counter("cluster_sweeps_shed_total", "grid submissions shed by coordinator admission control"),
		BreakerTransitions: reg.CounterVec("cluster_worker_breaker_transitions_total",
			"per-worker circuit-breaker state transitions by destination state", "state"),
		AuditSampled:       reg.Counter("cluster_audit_sampled_shards_total", "completed shards re-executed on a second worker for audit"),
		AuditMatched:       reg.Counter("cluster_audit_matched_shards_total", "audited shards whose re-execution matched bit-exactly"),
		AuditDivergent:     reg.Counter("cluster_audit_divergent_shards_total", "audited shards whose re-execution diverged"),
		AuditDivergentRows: reg.Counter("cluster_audit_divergent_rows_total", "row-level disagreements found by shard audits"),
		AuditInconclusive:  reg.Counter("cluster_audit_inconclusive_shards_total", "divergent shards no tiebreak worker could settle (re-executed from scratch)"),
		AuditSkipped:       reg.Counter("cluster_audit_skipped_shards_total", "sampled shards with no second worker available to audit"),
		AuditQuarantined:   reg.Counter("cluster_audit_quarantined_workers_total", "workers quarantined after losing an audit tiebreak quorum"),
		AuditRevoked:       reg.Counter("cluster_audit_revoked_shards_total", "unaudited shards revoked and re-executed after their worker was quarantined"),
		DigestFailures:     reg.Counter("cluster_digest_failures_total", "shard results rejected on receipt for checksum or digest mismatch"),
		InvalidRows:        reg.Counter("cluster_journal_invalid_rows_total", "CRC-valid journal rows that failed re-validation on replay (schema drift)"),
		BreakerState: reg.GaugeVec("cluster_worker_breaker_state",
			"per-worker breaker state: 0 closed, 1 half-open, 2 open, 3 quarantined", "worker"),
		WorkerUp:        reg.GaugeVec("cluster_worker_up", "1 while the worker's heartbeats are healthy", "worker"),
		PointsPerSecond: reg.Gauge("cluster_points_per_second", "fresh points merged per wall-clock second (last sweep)"),
		ShardSeconds: reg.Histogram("cluster_shard_seconds",
			"wall-clock latency of one successful shard dispatch", nil),
	}
}

// HAMetrics is the high-availability replica's instrument set: who
// leads, at what term, and how far this standby's journal trails.
type HAMetrics struct {
	// Term is the term this replica most recently led; IsLeader is 1
	// while it believes it holds the lease.
	Term     *telemetry.Gauge
	IsLeader *telemetry.Gauge
	// Elections counts terms won; StepDowns counts leaderships
	// relinquished (expired lease, higher term witnessed, shutdown).
	Elections *telemetry.Counter
	StepDowns *telemetry.Counter
	// AppliedRecords counts records this replica applied from the
	// leader's journal tail.
	AppliedRecords *telemetry.Counter
	// ReplLag is the records the last tail round applied: how far this
	// replica trailed the leader when the round began. A leader reports 0.
	ReplLag *telemetry.Gauge
}

// NewHAMetrics registers the HA family on reg.
func NewHAMetrics(reg *telemetry.Registry) *HAMetrics {
	return &HAMetrics{
		Term:           reg.Gauge("cluster_term", "leadership term this replica most recently led"),
		IsLeader:       reg.Gauge("cluster_is_leader", "1 while this replica holds the leadership lease"),
		Elections:      reg.Counter("cluster_elections_total", "leadership terms won by this replica"),
		StepDowns:      reg.Counter("cluster_stepdowns_total", "leaderships relinquished by this replica"),
		AppliedRecords: reg.Counter("cluster_applied_records_total", "journal records applied from the leader's journal tail"),
		ReplLag: reg.Gauge("cluster_replication_lag_records",
			"records the last journal tail round applied: how far this replica trailed the leader when it began (0 on a leader)"),
	}
}
