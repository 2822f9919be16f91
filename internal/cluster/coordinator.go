package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bcnphase/internal/canonjson"
	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
	"bcnphase/internal/telemetry"
)

// DefaultShardSize is the default points-per-shard granularity, set
// from BenchmarkClusterSweep (DESIGN.md §5f, "Shard size"). Every
// dispatch costs a fixed 150–250 µs of CPU (HTTP round trip, shard
// codec, signature, audit bookkeeping, merge) against a solve of ~1 µs
// per point, so 32-point shards cost 44–70% more CPU per point than
// the rung's cheapest size, and 64-point shards 20–40% more. 128 is
// the smallest size near that floor (median 12% above it). Larger
// shards save about a tenth more but make every grid up to 16×16 one
// dispatch: one busy worker, nothing to steal, and the whole grid
// forfeited when that worker is lost.
const DefaultShardSize = 128

// Journal is the coordinator's durable store: the merged rows and
// shard done markers live here. runstate.Journal satisfies it, as does
// any serve.Cache. Rows go in as appendRowJSON's bytes under PointKey
// and replay by journaledRow, exactly as GainGrid.RunJournaled, and so
// bcnsweep -resume, writes and replays them: a runstate.Journal either
// one wrote resumes in the other (TestJournalsInterchangeable).
// Implementations must be safe for concurrent use.
type Journal interface {
	Lookup(key string) ([]byte, bool)
	Record(key string, value []byte) error // durable when it returns
}

// Config configures a Coordinator. The zero value of every field gets
// a sensible default from New except Workers, which is required.
type Config struct {
	// Workers are the bcnd worker base URLs (e.g. http://10.0.0.1:8077).
	Workers []string
	// ShardSize bounds points per shard (default DefaultShardSize).
	ShardSize int
	// LeaseTimeout is the hard deadline of one dispatch attempt: a
	// worker that has not answered within it loses the shard (default
	// 30s).
	LeaseTimeout time.Duration
	// HeartbeatInterval paces worker /statusz probes (default 1s;
	// negative disables heartbeats). HeartbeatMisses consecutive probe
	// failures mark a worker lost (default 3).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// RetryBase seeds the jittered exponential backoff between dispatch
	// attempts (default 100ms); RetryCap bounds both the backoff and an
	// honored Retry-After hint (default 5s). MaxAttempts bounds attempts
	// per assignment (default 3). A shard may move between workers
	// 4 × workers times (minimum 8) before the sweep fails.
	RetryBase   time.Duration
	RetryCap    time.Duration
	MaxAttempts int
	// BreakerThreshold consecutive dispatch failures quarantine a worker
	// for BreakerCooldown (defaults 3 and 10s; negative threshold
	// disables the breaker).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Journal, when non-nil, makes the sweep durable and resumable:
	// every merged row and shard done marker is recorded, and a restart
	// replays instead of recomputing.
	Journal Journal
	// MapPath, when non-empty, receives the merged map.csv atomically on
	// success.
	MapPath string
	// Registry receives the cluster metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Client is the HTTP client for dispatch and heartbeats; nil uses a
	// default with per-call timeouts from contexts.
	Client *http.Client
	// Log, when non-nil, receives one line per notable cluster event.
	Log io.Writer
	// Seed makes retry jitter deterministic in tests; 0 seeds from the
	// clock.
	Seed int64
	// Now overrides the breaker clock (tests); nil uses time.Now.
	Now func() time.Time
	// OnShardDone, when non-nil, observes every completed shard just
	// after its done marker is durable (instrumentation and chaos-test
	// seam; called from dispatch goroutines).
	OnShardDone func(worker string, shard Shard)
	// AuditFraction is the fraction of freshly completed shards the
	// coordinator re-executes on a different worker (consistent-hash
	// next-replica placement) and compares bit-exactly before their rows
	// are journaled: 0 disables auditing, 1 audits every shard. On
	// divergence a third worker breaks the tie and the outvoted worker is
	// quarantined — its leases discarded, its queued shards moved, its
	// unaudited merged shards revoked and re-executed.
	AuditFraction float64
	// auditFor, when non-nil, replaces AuditFraction sampling with a
	// per-shard-index decision (deterministic audit schedules in tests).
	auditFor func(index int) bool
	// Term, when nonzero, stamps every shard dispatch with this
	// leadership term (Bcn-Term header). Workers whose witness has seen
	// a higher term reject the dispatch terminally, so a deposed
	// leader's stale grants die at the worker's door instead of merging
	// (see internal/serve's witness and DESIGN.md §5i).
	Term uint64
	// LeaseValid, when non-nil, gates every merge: returning false
	// fails the sweep with ErrLeaseLost before anything is journaled.
	// The HA layer installs it so a leader that lost its lease stops
	// writing even if no fenced worker has told it so yet.
	LeaseValid func() bool
	// CompactJournal compacts the journal (when it supports compaction,
	// as runstate.Journal does) after each successful sweep, bounding
	// replay time and standby snapshot size by live state instead of
	// append history. Compaction failures are logged, never fatal — the
	// sweep's durability does not depend on the rewrite.
	CompactJournal bool
}

// Coordinator shards gain-plane sweeps across bcnd workers. Create
// with New, run sweeps with Run (safe for concurrent use), stop the
// background heartbeat monitor with Close.
type Coordinator struct {
	cfg     Config
	ring    *ring
	m       *Metrics
	breaker *qos.Breaker
	client  *http.Client
	rng     *lockedRand
	// maxAssignments bounds how many times a shard may move between
	// workers before the sweep fails: 4 × workers, minimum 8.
	maxAssignments int

	mu       sync.Mutex
	alive    []bool
	draining []bool
	misses   []int
	lastSeen []time.Time // monotonic: last healthy probe (or start)
	inflight []map[*context.CancelFunc]struct{}
	runs     map[*sweepState]struct{}
	// strays holds the foreign done markers already counted, so each
	// adds to StrayRecords once however many Runs see it.
	strays map[string]struct{}

	stop     chan struct{}
	hbDone   chan struct{}
	registry *telemetry.Registry
}

// dedupeWorkers rejects empty worker URLs and collapses duplicates to
// their first occurrence. Deduplication happens before the
// consistent-hash ring is built: a worker listed twice (a copy-pasted
// -workers flag) must not get double the virtual-node count — and so
// double the shard placement weight — of its peers, nor be probed and
// breaker-tracked as two phantom workers.
func dedupeWorkers(in []string) ([]string, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker URL")
	}
	out := make([]string, 0, len(in))
	seen := make(map[string]bool, len(in))
	for _, w := range in {
		if strings.TrimSpace(w) == "" {
			return nil, fmt.Errorf("cluster: empty worker URL")
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out, nil
}

// New builds a Coordinator from cfg, applying defaults, and starts the
// heartbeat monitor.
func New(cfg Config) (*Coordinator, error) {
	workers, err := dedupeWorkers(cfg.Workers)
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.AuditFraction < 0 || cfg.AuditFraction > 1 || cfg.AuditFraction != cfg.AuditFraction {
		return nil, fmt.Errorf("cluster: audit fraction %v outside [0, 1]", cfg.AuditFraction)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	c := &Coordinator{
		cfg:      cfg,
		ring:     newRing(cfg.Workers),
		m:        NewMetrics(cfg.Registry),
		client:   cfg.Client,
		rng:      newLockedRand(cfg.Seed),
		alive:    make([]bool, len(cfg.Workers)),
		draining: make([]bool, len(cfg.Workers)),
		misses:   make([]int, len(cfg.Workers)),
		lastSeen: make([]time.Time, len(cfg.Workers)),
		inflight: make([]map[*context.CancelFunc]struct{}, len(cfg.Workers)),
		runs:     make(map[*sweepState]struct{}),
		strays:   make(map[string]struct{}),
		stop:     make(chan struct{}),
		hbDone:   make(chan struct{}),
		registry: cfg.Registry,

		maxAssignments: max(4*len(cfg.Workers), 8),
	}
	c.breaker = qos.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now,
		c.m.BreakerTransitions, c.m.BreakerState, cfg.Workers...)
	started := time.Now() // monotonic reading: the heartbeat epoch
	for w := range cfg.Workers {
		// Optimistic start: workers are presumed alive until heartbeats
		// (or dispatch failures through the breaker) say otherwise.
		c.alive[w] = true
		c.lastSeen[w] = started
		c.inflight[w] = make(map[*context.CancelFunc]struct{})
		c.m.WorkerUp.With(cfg.Workers[w]).Set(1)
	}
	if cfg.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.hbDone)
	}
	return c, nil
}

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.registry }

// Metrics exposes the coordinator's instrument set for read-side
// assertions and embedding daemons.
func (c *Coordinator) Metrics() *Metrics { return c.m }

// Close stops the heartbeat monitor. In-flight Runs keep working (their
// dispatch failures still drive re-assignment); Close exists so an
// embedding daemon can shut down without leaking the monitor goroutine.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
		return
	default:
	}
	close(c.stop)
	<-c.hbDone
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	fmt.Fprintf(c.cfg.Log, "cluster: "+format+"\n", args...)
}

// WorkerHealth is one worker's liveness snapshot for /statusz.
type WorkerHealth struct {
	Worker   string `json:"worker"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining"`
}

// WorkerSnapshot lists every worker's heartbeat state.
func (c *Coordinator) WorkerSnapshot() []WorkerHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerHealth, len(c.cfg.Workers))
	for w, name := range c.cfg.Workers {
		out[w] = WorkerHealth{Worker: name, Up: c.alive[w], Draining: c.draining[w]}
	}
	return out
}

// Output is one completed cluster sweep.
type Output struct {
	// CSV is the merged map.csv (header plus one row per grid point, in
	// grid order) — byte-identical to a single-node run's.
	CSV []byte
	// Fingerprint is the grid identity hash rooting every journal key.
	Fingerprint string
	// Points, Fresh and Replayed count the grid size, freshly merged
	// points, and journal-replayed points (Fresh + Replayed == Points).
	Points   int
	Fresh    int
	Replayed int
	// OrphanShards counts journal shards that were surfaced without a
	// done marker and re-executed.
	OrphanShards int
	// AuditedShards counts shards of this sweep that were confirmed by a
	// second worker before merging.
	AuditedShards int
}

// sweepState is the shared dispatch state of one Run: per-worker shard
// queues guarded by mu/cond, plus the merge target.
type sweepState struct {
	mu   sync.Mutex
	cond *sync.Cond

	grid    GainGrid
	fp      string
	queues  [][]*shardRun
	pending int // shards not yet done
	fatal   error

	rows  []Row
	have  []bool
	fresh int

	// unaudited[w] holds shards merged from worker w without a second
	// worker's confirmation; quarantining w revokes and re-executes them.
	unaudited map[int][]*shardRun
	// audited counts shards confirmed by a second worker.
	audited int
}

type shardRun struct {
	shard       Shard
	assignments int
	planned     int // ring-planned owner
	// size is the point count of the planned shard, which shard may
	// have been pruned below on replay. The done marker records size, so
	// every coordinator that seals a shard writes the same bytes.
	size int
	// revoked marks a shard whose merged rows were withdrawn after its
	// worker was quarantined: the next merge force-records its rows so
	// the journal supersedes the distrusted values.
	revoked bool
}

func (s *sweepState) finished() bool { return s.pending == 0 || s.fatal != nil }

// Run executes one gain-plane sweep across the cluster and returns the
// merged map. It blocks until every shard is durable (or ctx expires /
// the re-assignment budget is exhausted); concurrent Runs are safe and
// share workers, breaker state and heartbeats.
func (c *Coordinator) Run(ctx context.Context, grid GainGrid) (*Output, error) {
	began := time.Now()
	fp, points, shards, err := PlanShards(grid, c.cfg.ShardSize)
	if err != nil {
		return nil, err
	}
	out := &Output{Fingerprint: fp, Points: len(points)}
	st := &sweepState{
		grid:      grid,
		fp:        fp,
		queues:    make([][]*shardRun, len(c.cfg.Workers)),
		rows:      make([]Row, len(points)),
		have:      make([]bool, len(points)),
		unaudited: make(map[int][]*shardRun),
	}
	st.cond = sync.NewCond(&st.mu)

	pendingShards, orphans, replayed := c.scanJournal(fp, shards, st)
	out.Replayed = replayed
	out.OrphanShards = orphans
	c.m.ReplayedPoints.Add(uint64(replayed))
	if orphans > 0 {
		c.m.OrphanShards.Add(uint64(orphans))
		c.logf("journal replay surfaced %d orphan shards (rows without done marker); re-executing", orphans)
	}
	c.countStrays(fp)

	st.pending = len(pendingShards)
	if st.pending > 0 {
		// Plan each shard onto its ring owner; work-stealing and
		// re-assignment take it from there.
		for _, sr := range pendingShards {
			sr.planned = c.ring.owner(DoneKey(fp, sr.shard.Index), nil)
			st.queues[sr.planned] = append(st.queues[sr.planned], sr)
		}
		c.mu.Lock()
		c.runs[st] = struct{}{}
		c.mu.Unlock()
		err = c.dispatchAll(ctx, st)
		c.mu.Lock()
		delete(c.runs, st)
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}

	st.mu.Lock()
	out.Fresh = st.fresh
	out.AuditedShards = st.audited
	rows := st.rows
	st.mu.Unlock()
	for i := range st.have {
		if !st.have[i] {
			return nil, fmt.Errorf("cluster: internal: point %d missing after merge", i)
		}
	}
	out.CSV = RenderCSV(rows)
	if wall := time.Since(began).Seconds(); wall > 0 {
		c.m.PointsPerSecond.Set(float64(out.Fresh) / wall)
	}
	if c.cfg.MapPath != "" {
		if err := runstate.WriteFileAtomic(c.cfg.MapPath, out.CSV, 0o644); err != nil {
			return nil, err
		}
	}
	if c.cfg.CompactJournal {
		if comp, ok := c.cfg.Journal.(interface{ Compact() error }); ok {
			if err := comp.Compact(); err != nil {
				c.logf("journal compaction after sweep %0.12s failed (sweep unaffected): %v", fp, err)
			} else {
				c.logf("journal compacted after sweep %0.12s", fp)
			}
		}
	}
	c.logf("sweep %0.12s done: %d points (%d fresh, %d replayed, %d orphan shards) in %s",
		fp, out.Points, out.Fresh, out.Replayed, out.OrphanShards, time.Since(began).Round(time.Millisecond))
	return out, nil
}

// scanJournal classifies every planned shard against the journal:
// complete (done marker and all rows — replay), orphan (rows without a
// done marker, or a done marker missing rows — surface, count, and
// re-execute what is missing), or fresh. A stored row counts only when
// journaledRow replays it, the rule RunJournaled resumes by. Replayed rows land in st
// directly; the returned shards are the ones still needing execution,
// pruned to their missing points.
func (c *Coordinator) scanJournal(fp string, shards []Shard, st *sweepState) (pending []*shardRun, orphans, replayed int) {
	j := c.cfg.Journal
	for _, sh := range shards {
		missing := Shard{Index: sh.Index}
		if j != nil {
			for k, key := range sh.Keys {
				raw, ok := j.Lookup(key)
				if !ok {
					missing.Points = append(missing.Points, sh.Points[k])
					missing.GridIdx = append(missing.GridIdx, sh.GridIdx[k])
					missing.Keys = append(missing.Keys, key)
					continue
				}
				row, ok := journaledRow(raw)
				if !ok {
					// CRC-valid but not a replayable row (schema drift
					// across versions, an empty value): counted and
					// re-evaluated rather than resurrected.
					c.m.InvalidRows.Inc()
					missing.Points = append(missing.Points, sh.Points[k])
					missing.GridIdx = append(missing.GridIdx, sh.GridIdx[k])
					missing.Keys = append(missing.Keys, key)
					continue
				}
				st.rows[sh.GridIdx[k]] = row
				st.have[sh.GridIdx[k]] = true
				replayed++
			}
		} else {
			missing = sh
		}
		done := false
		if j != nil {
			_, done = j.Lookup(DoneKey(fp, sh.Index))
		}
		replayedHere := len(sh.Points) - len(missing.Points)
		switch {
		case done && len(missing.Points) == 0:
			// Complete: fully replayed.
		case !done && replayedHere == 0 && j != nil:
			// Fresh (never started).
			pending = append(pending, &shardRun{shard: sh, size: len(sh.Points)})
		case j == nil:
			pending = append(pending, &shardRun{shard: sh, size: len(sh.Points)})
		default:
			// Rows without a done marker (a worker or coordinator died
			// mid-shard), or a done marker with rows missing (corrupt or
			// superseded lines dropped on replay). Either way the shard
			// is surfaced and re-executed, not silently trusted.
			orphans++
			if len(missing.Points) > 0 {
				pending = append(pending, &shardRun{shard: missing, size: len(sh.Points)})
			} else {
				// All rows present, only the marker missing: re-seal.
				if err := c.recordDone(fp, sh.Index, len(sh.Points)); err == nil {
					c.m.ShardsDone.Inc()
				} else {
					pending = append(pending, &shardRun{shard: missing, size: len(sh.Points)})
				}
			}
		}
	}
	return pending, orphans, replayed
}

// countStrays counts done markers left by other grids in this journal —
// stale fingerprints are expected across re-parameterized runs, but
// operators deserve a series that says so. Each marker counts once per
// coordinator, not once per Run that sees it.
func (c *Coordinator) countStrays(fp string) {
	type keyser interface{ Keys() []string }
	j, ok := c.cfg.Journal.(keyser)
	if !ok {
		return
	}
	keys := j.Keys()
	stray := 0
	c.mu.Lock()
	for _, key := range keys {
		if !strings.HasPrefix(key, "shard-done:") || strings.HasPrefix(key, "shard-done:"+fp+":") {
			continue
		}
		if _, seen := c.strays[key]; !seen {
			c.strays[strings.Clone(key)] = struct{}{} // alone, not the string all keys share
			stray++
		}
	}
	c.mu.Unlock()
	if stray > 0 {
		c.m.StrayRecords.Add(uint64(stray))
		c.logf("journal holds %d shard markers from other grids (stale fingerprints); ignored", stray)
	}
}

// dispatchAll runs one worker loop per configured worker until every
// pending shard is done or the sweep fails. A ticker broadcast wakes
// parked workers so breaker cooldowns and heartbeat recoveries are
// noticed without a dedicated signal for each.
func (c *Coordinator) dispatchAll(ctx context.Context, st *sweepState) error {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	stopTick := make(chan struct{})
	go func() {
		for {
			select {
			case <-tick.C:
				st.cond.Broadcast()
			case <-ctx.Done():
				st.cond.Broadcast()
				return
			case <-c.stop:
				st.cond.Broadcast()
				return
			case <-stopTick:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range c.cfg.Workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.workerLoop(ctx, st, w)
		}(w)
	}
	wg.Wait()
	close(stopTick)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fatal != nil {
		return st.fatal
	}
	if st.pending > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: cluster sweep cancelled with %d shards pending", runstate.ErrInterrupted, st.pending)
		}
		if c.isClosed() {
			return fmt.Errorf("%w: coordinator closed with %d shards pending", runstate.ErrInterrupted, st.pending)
		}
		return fmt.Errorf("cluster: internal: dispatch stopped with %d shards pending", st.pending)
	}
	return nil
}

// errCoordinatorClosed aborts dispatch waits when Close is called, so
// shutdown latency is bounded by the in-flight HTTP calls, never by a
// pending jittered backoff window.
var errCoordinatorClosed = fmt.Errorf("cluster: coordinator closed")

func (c *Coordinator) isClosed() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// eligible reports whether worker w may receive new shards right now.
func (c *Coordinator) eligible(w int) bool {
	c.mu.Lock()
	ok := c.alive[w] && !c.draining[w]
	c.mu.Unlock()
	return ok && !c.breaker.Open(c.cfg.Workers[w])
}

// take pops the next shard for worker w: its own queue first, then a
// steal from the longest other queue. Returns nil when no work is
// takeable (empty queues, ineligible worker, or breaker denial).
func (c *Coordinator) take(st *sweepState, w int) (sr *shardRun, stolen bool) {
	if !c.eligible(w) {
		return nil, false
	}
	if len(st.queues[w]) > 0 {
		if ok, _ := c.breaker.Allow(c.cfg.Workers[w]); !ok {
			return nil, false
		}
		sr = st.queues[w][0]
		st.queues[w] = st.queues[w][1:]
		return sr, false
	}
	victim, max := -1, 0
	for v := range st.queues {
		if v != w && len(st.queues[v]) > max {
			victim, max = v, len(st.queues[v])
		}
	}
	if victim < 0 {
		return nil, false
	}
	if ok, _ := c.breaker.Allow(c.cfg.Workers[w]); !ok {
		return nil, false
	}
	// Steal from the tail: the head is what the victim would run next.
	last := len(st.queues[victim]) - 1
	sr = st.queues[victim][last]
	st.queues[victim] = st.queues[victim][:last]
	return sr, true
}

// workerLoop is worker w's dispatch pump for one sweep.
func (c *Coordinator) workerLoop(ctx context.Context, st *sweepState, w int) {
	name := c.cfg.Workers[w]
	for {
		st.mu.Lock()
		var (
			sr     *shardRun
			stolen bool
		)
		for {
			if st.finished() || ctx.Err() != nil || c.isClosed() {
				st.mu.Unlock()
				st.cond.Broadcast()
				return
			}
			if sr, stolen = c.take(st, w); sr != nil {
				break
			}
			st.cond.Wait()
		}
		st.mu.Unlock()
		if stolen {
			c.m.Stolen.Inc()
			c.logf("worker %s stole shard %d", name, sr.shard.Index)
		}

		began := time.Now()
		res, err := c.dispatch(ctx, st, w, sr)
		switch {
		case err == nil:
			// The dispatch itself succeeded regardless of what the audit
			// concludes about the rows; the breaker tracks availability,
			// the quorum tracks honesty (Success on a quarantined worker
			// is a no-op).
			c.breaker.Success(name)
			v := c.audit(ctx, st, w, sr, res)
			if !v.merge {
				continue
			}
			if mergeErr := c.merge(st, v.winner, sr, v.res, v.audited); mergeErr != nil {
				// A journal that cannot keep rows breaks the durability
				// contract; fail the sweep rather than fake completion.
				st.mu.Lock()
				if st.fatal == nil {
					st.fatal = mergeErr
				}
				st.mu.Unlock()
				st.cond.Broadcast()
				return
			}
			c.m.ShardSeconds.Observe(time.Since(began).Seconds())
		case errors.Is(err, errCoordinatorClosed), ctx.Err() != nil:
			// Sweep cancelled: hand the shard back without blaming the
			// worker and let the loop exit on the next pass.
			c.breaker.Release(name)
			st.mu.Lock()
			st.queues[w] = append(st.queues[w], sr)
			st.mu.Unlock()
			st.cond.Broadcast()
		case errors.Is(err, ErrStaleTerm):
			// The worker's witness has granted a higher term: this
			// coordinator is deposed. The whole sweep is doomed — every
			// further dispatch would be fenced the same way — so fail it
			// now without blaming the worker, and let the HA layer (which
			// observes the same lease loss) step down.
			c.breaker.Release(name)
			st.mu.Lock()
			if st.fatal == nil {
				st.fatal = err
			}
			st.mu.Unlock()
			st.cond.Broadcast()
			return
		default:
			c.breaker.Failure(name)
			c.m.WorkerErrors.With(name).Inc()
			sr.assignments++
			c.logf("worker %s failed shard %d (assignment %d): %v", name, sr.shard.Index, sr.assignments, err)
			if sr.assignments >= c.maxAssignments {
				st.mu.Lock()
				if st.fatal == nil {
					st.fatal = fmt.Errorf("cluster: shard %d exhausted %d assignments (last worker %s): %w",
						sr.shard.Index, sr.assignments, name, err)
				}
				st.mu.Unlock()
				st.cond.Broadcast()
				return
			}
			c.requeue(st, sr, w)
		}
	}
}

// requeue moves a failed shard to another worker's queue (ring-ordered
// among currently eligible workers, skipping the one that just failed
// it) and counts the re-assignment.
func (c *Coordinator) requeue(st *sweepState, sr *shardRun, failed int) {
	target := c.ring.owner(DoneKey(st.fp, sr.shard.Index), func(w int) bool {
		return w != failed && c.eligible(w)
	})
	if target < 0 {
		// Nobody else is eligible: back onto the failed worker's queue;
		// the breaker cooldown paces the next try.
		target = failed
	}
	c.m.Reassigned.Inc()
	st.mu.Lock()
	st.queues[target] = append(st.queues[target], sr)
	st.mu.Unlock()
	st.cond.Broadcast()
}

// merge records a completed shard: every fresh row durably journaled
// (skipping keys already holding a valid row, so records are never
// duplicated), then the shard's done marker, then the in-memory merge
// and progress accounting. A revoked shard force-records instead of
// skipping, superseding rows a quarantined worker left behind; a key
// whose existing value is not a replayable row (journaledRow) is
// likewise overwritten, healing schema drift on re-execution. Shards
// merged without an audit are remembered per worker so a later
// quarantine can revoke them.
func (c *Coordinator) merge(st *sweepState, w int, sr *shardRun, res ShardResult, audited bool) error {
	// Leadership gate: results from a term whose lease has lapsed must
	// not reach the journal. Worker-side fencing already rejects most
	// stale dispatches; this is the local backstop for a result that was
	// already in flight when the lease was lost.
	if c.cfg.LeaseValid != nil && !c.cfg.LeaseValid() {
		return fmt.Errorf("%w: term %d lease invalid at merge of shard %d", ErrLeaseLost, c.cfg.Term, sr.shard.Index)
	}
	if j := c.cfg.Journal; j != nil {
		// Every record is the row's JSON as postShard verified it: a
		// capped window of one buffer, never overwritten, so a journal
		// may keep the slice.
		for i, key := range sr.shard.Keys {
			if !sr.revoked {
				if raw, ok := j.Lookup(key); ok {
					if _, ok := journaledRow(raw); ok {
						continue
					}
				}
			}
			if err := j.Record(key, res.records[i]); err != nil {
				return fmt.Errorf("cluster: journal row: %w", err)
			}
		}
		if err := c.recordDone(st.fp, sr.shard.Index, sr.size); err != nil {
			return err
		}
	}
	st.mu.Lock()
	sr.revoked = false
	for i, idx := range sr.shard.GridIdx {
		if !st.have[idx] {
			st.have[idx] = true
			st.rows[idx] = res.Rows[i]
			st.fresh++
			c.m.Points.Inc()
		}
	}
	switch {
	case audited:
		st.audited++
	case c.breaker.Quarantined(c.cfg.Workers[w]):
		// w was quarantined while this unaudited merge was in flight, so
		// the quarantine's revocation sweep may have run before this shard
		// appeared in st.unaudited. Revoke it here, under the same lock the
		// sweep scans with, so no unaudited shard of a quarantined worker
		// ever survives merged.
		for _, idx := range sr.shard.GridIdx {
			if st.have[idx] {
				st.have[idx] = false
				st.fresh--
			}
		}
		sr.revoked = true
		c.m.AuditRevoked.Inc()
		target := c.ring.owner(DoneKey(st.fp, sr.shard.Index), func(o int) bool {
			return o != w && c.eligible(o)
		})
		if target < 0 {
			target = w
		} else {
			c.m.Reassigned.Inc()
		}
		st.queues[target] = append(st.queues[target], sr)
		st.mu.Unlock()
		st.cond.Broadcast()
		c.logf("audit: shard %d merged from quarantined %s; revoked and re-executing", sr.shard.Index, c.cfg.Workers[w])
		return nil
	default:
		st.unaudited[w] = append(st.unaudited[w], sr)
	}
	st.pending--
	st.mu.Unlock()
	c.m.ShardsDone.Inc()
	c.logf("worker %s done shard %d (%d points)", c.cfg.Workers[w], sr.shard.Index, len(sr.shard.Points))
	if c.cfg.OnShardDone != nil {
		c.cfg.OnShardDone(c.cfg.Workers[w], sr.shard)
	}
	st.cond.Broadcast()
	return nil
}

// recordDone seals shard index of sweep fp, whose plan holds size
// points. A marker already holding these bytes is left alone; one left
// by a plan of another shard size is superseded.
func (c *Coordinator) recordDone(fp string, index, size int) error {
	j := c.cfg.Journal
	key := DoneKey(fp, index)
	raw, err := json.Marshal(doneMarker{Index: index, Points: size})
	if err != nil {
		return fmt.Errorf("cluster: encode done marker: %w", err)
	}
	if old, ok := j.Lookup(key); ok && bytes.Equal(old, raw) {
		return nil
	}
	if err := j.Record(key, raw); err != nil {
		return fmt.Errorf("cluster: journal done marker: %w", err)
	}
	return nil
}

// dispatch posts one shard assignment to worker w under the lease, with
// bounded, jittered, Retry-After-honoring retries. Every error return
// means "this worker did not complete this shard" — the caller decides
// whether to re-assign.
func (c *Coordinator) dispatch(ctx context.Context, st *sweepState, w int, sr *shardRun) (ShardResult, error) {
	sh := &ShardSpec{Grid: st.grid, Index: sr.shard.Index, Points: sr.shard.Points}
	timeoutMs := int64(c.cfg.LeaseTimeout / time.Millisecond * 9 / 10)
	// Deadline propagation: a sweep running under a client budget caps
	// each shard's worker-side timeout at the remaining budget minus one
	// hop margin, and a shard that no longer fits its budget is doomed
	// here — before it occupies a worker.
	if rem, ok := qos.Remaining(ctx); ok {
		rem = qos.Forward(rem)
		if rem <= 0 {
			return ShardResult{}, fmt.Errorf("cluster: shard %d doomed: %w", sh.Index, context.DeadlineExceeded)
		}
		if ms := int64(rem / time.Millisecond); ms < timeoutMs {
			timeoutMs = ms
		}
	}
	body, err := EncodeShardJob(sh, timeoutMs)
	if err != nil {
		return ShardResult{}, err
	}
	bo := &backoff{base: c.cfg.RetryBase, cap: c.cfg.RetryCap, rng: c.rng}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.m.Retries.Inc()
		}
		if err := ctx.Err(); err != nil {
			return ShardResult{}, err
		}
		if !c.eligible(w) && attempt > 0 {
			// The worker was lost or started draining between attempts;
			// stop hammering it and let the caller re-assign.
			return ShardResult{}, fmt.Errorf("cluster: worker %s became unavailable: %w", c.cfg.Workers[w], lastErr)
		}
		res, retryAfter, err := c.postShard(ctx, w, sh, body)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if retryAfter < 0 { // terminal verdict, not transient
			return ShardResult{}, err
		}
		select {
		case <-time.After(bo.next(retryAfter)):
		case <-ctx.Done():
			return ShardResult{}, ctx.Err()
		case <-c.stop:
			// Coordinator shutdown aborts the jittered wait immediately;
			// drain latency is bounded by in-flight HTTP calls only.
			return ShardResult{}, errCoordinatorClosed
		}
	}
	return ShardResult{}, fmt.Errorf("cluster: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// postShard performs one lease-bounded dispatch attempt. retryAfter is
// the pacing hint for a transient failure (0 when the worker gave
// none) and -1 for a terminal one.
func (c *Coordinator) postShard(ctx context.Context, w int, sh *ShardSpec, body []byte) (res ShardResult, retryAfter time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	cp := &cancel
	c.mu.Lock()
	c.inflight[w][cp] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight[w], cp)
		c.mu.Unlock()
		cancel()
	}()

	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.Workers[w]+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return ShardResult{}, -1, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Fencing: stamp the dispatch with the leadership term. A worker
	// whose witness has granted a higher term answers 409 stale-term,
	// which postShard classifies as terminal and workerLoop escalates to
	// a sweep-fatal ErrStaleTerm — a deposed leader stops, it does not
	// retry its way back in.
	if c.cfg.Term != 0 {
		req.Header.Set(TermHeader, strconv.FormatUint(c.cfg.Term, 10))
	}
	// Propagate the tenant key and the per-hop-decremented deadline so a
	// QoS-enabled worker bills this shard to the right tenant and dooms
	// it early when the budget has drained.
	if tenant := qos.TenantFromContext(ctx); tenant != "" {
		req.Header.Set(qos.TenantHeader, tenant)
	}
	if rem, ok := qos.Remaining(ctx); ok {
		if fwd := qos.Forward(rem); fwd > 0 {
			req.Header.Set(qos.DeadlineHeader, qos.FormatDeadline(fwd))
		}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ShardResult{}, 0, ctx.Err()
		}
		// Connection failures and lease expiries are transient from the
		// cluster's point of view: the shard can move.
		return ShardResult{}, 0, fmt.Errorf("cluster: post shard %d to %s: %w", sh.Index, c.cfg.Workers[w], err)
	}
	defer resp.Body.Close()
	// Every use of raw below copies what it keeps, so the buffer is
	// reused once this attempt returns.
	buf := canonjson.Borrow()
	defer canonjson.Return(buf)
	raw, err := canonjson.ReadAll(buf, io.LimitReader(resp.Body, MaxWireBytes+1))
	if err != nil {
		return ShardResult{}, 0, fmt.Errorf("cluster: read shard %d response: %w", sh.Index, err)
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusConflict {
			var eb struct {
				Reason string `json:"reason"`
			}
			if json.Unmarshal(raw, &eb) == nil && eb.Reason == StaleTermReason {
				return ShardResult{}, -1, fmt.Errorf("%w: worker %s fenced shard %d dispatched at term %d (worker has seen term %s)",
					ErrStaleTerm, c.cfg.Workers[w], sh.Index, c.cfg.Term, resp.Header.Get(TermHeader))
			}
		}
		err := fmt.Errorf("cluster: worker %s answered shard %d with status %d: %s",
			c.cfg.Workers[w], sh.Index, resp.StatusCode, truncate(raw, 200))
		if RetryableStatus(resp.StatusCode) {
			return ShardResult{}, qos.RetryAfter(resp.Header), err
		}
		return ShardResult{}, -1, err
	}
	res, err = DecodeShardArtifact(raw, sh)
	if err != nil {
		// A malformed result is a verdict about the worker, not load.
		return ShardResult{}, -1, err
	}
	if err := verifyShard(&res); err != nil {
		// Rows not matching their signed checksums means the result was
		// corrupted somewhere between evaluation and here — transient,
		// unlike a malformed envelope: the same worker can answer
		// correctly on a retry.
		c.m.DigestFailures.Inc()
		return ShardResult{}, 0, err
	}
	return res, 0, nil
}

// heartbeatLoop probes every worker's /statusz on the configured
// interval. HeartbeatMisses consecutive failures mark a worker lost:
// its in-flight leases are cancelled (so its shards re-assign now, not
// at lease expiry) and its queued shards are redistributed. A healthy
// probe marks it back up; a draining worker stops receiving new shards
// while its in-flight work is allowed to finish — that is the point of
// a drain.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.hbDone)
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		// The tick time is captured once, before any probe: a healthy
		// worker's lastSeen then advances by exactly one interval per
		// tick, so the monotonic down-deadline below cannot drift with
		// per-probe latency.
		tick := time.Now()
		for w := range c.cfg.Workers {
			st, err := c.probe(w)
			c.noteHeartbeat(w, tick, st, err)
		}
	}
}

// probe fetches one worker's /statusz under a short deadline.
func (c *Coordinator) probe(w int) (WorkerStatus, error) {
	budget := c.cfg.HeartbeatInterval
	if budget > 2*time.Second {
		budget = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.Workers[w]+"/statusz", nil)
	if err != nil {
		return WorkerStatus{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return WorkerStatus{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxWireBytes+1))
	if err != nil {
		return WorkerStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return WorkerStatus{}, fmt.Errorf("statusz %d", resp.StatusCode)
	}
	return DecodeWorkerStatus(raw)
}

// noteHeartbeat folds one probe outcome into the liveness state. The
// down decision is monotonic: a worker is lost only when
// HeartbeatMisses consecutive probes failed AND time.Since its last
// healthy probe — a time.Time captured once per tick, carrying the
// runtime's monotonic reading — covers that many full intervals.
// time.Since subtracts monotonic clocks, so a wall-clock step (NTP
// correction, VM resume, leap smear) can neither mark a healthy worker
// down nor keep a dead one alive; the miss counter alone would survive
// a jump, but the deadline also protects against a stalled ticker
// firing a burst of queued probes back to back.
func (c *Coordinator) noteHeartbeat(w int, tick time.Time, st WorkerStatus, err error) {
	name := c.cfg.Workers[w]
	c.mu.Lock()
	if err != nil {
		c.misses[w]++
		downFor := time.Since(c.lastSeen[w])
		deadline := time.Duration(c.cfg.HeartbeatMisses) * c.cfg.HeartbeatInterval
		lost := c.alive[w] && c.misses[w] >= c.cfg.HeartbeatMisses && downFor >= deadline
		if lost {
			c.alive[w] = false
			// Cancel the worker's leases now: its in-flight shards fail
			// fast and re-assign instead of waiting out the lease.
			for cp := range c.inflight[w] {
				(*cp)()
			}
		}
		c.mu.Unlock()
		if lost {
			c.m.WorkerUp.With(name).Set(0)
			c.logf("worker %s lost after %d missed heartbeats", name, c.cfg.HeartbeatMisses)
			c.redistribute(w)
		}
		return
	}
	recovered := !c.alive[w]
	c.alive[w] = true
	c.misses[w] = 0
	c.lastSeen[w] = tick
	drainChanged := c.draining[w] != st.Draining
	c.draining[w] = st.Draining
	c.mu.Unlock()
	if recovered {
		c.m.WorkerUp.With(name).Set(1)
		c.logf("worker %s recovered", name)
	}
	if drainChanged && st.Draining {
		c.logf("worker %s is draining; no new shards", name)
		c.redistribute(w)
	}
}

// redistribute moves a lost or draining worker's queued shards onto the
// remaining eligible workers, counting each move as a re-assignment.
func (c *Coordinator) redistribute(lost int) {
	c.mu.Lock()
	runs := make([]*sweepState, 0, len(c.runs))
	for st := range c.runs {
		runs = append(runs, st)
	}
	c.mu.Unlock()
	for _, st := range runs {
		st.mu.Lock()
		q := st.queues[lost]
		st.queues[lost] = nil
		for _, sr := range q {
			target := c.ring.owner(DoneKey(st.fp, sr.shard.Index), func(w int) bool {
				return w != lost && c.eligible(w)
			})
			if target < 0 {
				target = lost // nobody eligible; keep parked here
			} else {
				c.m.Reassigned.Inc()
			}
			st.queues[target] = append(st.queues[target], sr)
		}
		st.mu.Unlock()
		st.cond.Broadcast()
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
