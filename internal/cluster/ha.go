package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"bcnphase/internal/telemetry"
)

// This file implements the highly-available coordinator (DESIGN.md
// §5i): N replicas, of which at most one — the holder of a
// majority-of-witnesses term lease — merges shards at any moment.
//
// The design has no external consensus store. The worker fleet itself
// is the electorate: each worker's witness (internal/serve) grants
// term leases under rules that never double-grant an unexpired term,
// so two replicas cannot both hold majorities at overlapping times.
// Fencing closes the remaining window: every shard dispatch carries
// its term, workers reject terms below the highest they have
// witnessed, and a leader re-checks its lease (monotonic clock) before
// every merge.
//
// Durability is journal-first, replication-second. The leader appends
// to its own journal synchronously — exactly like a single
// coordinator — and streams each record to standbys asynchronously.
// The stream is allowed to lose records under backpressure because
// correctness never depends on it: a successor re-executes whatever
// its journal lacks (zero lost points) and every write path is
// Lookup-before-Record on content-hash keys (zero duplicated
// records). Replication exists to make takeover cheap, not correct.

// HA roles.
const (
	RoleFollower = "follower"
	RoleLeader   = "leader"
)

// HAJournal is the durable store an HA replica requires: the
// coordinator Journal contract plus key enumeration for snapshots and
// takeover scans and a record count for status. runstate.Journal
// satisfies it.
type HAJournal interface {
	Journal
	Keys() []string
	Len() int
}

// HAConfig configures one coordinator replica.
type HAConfig struct {
	// Self is this replica's advertised base URL — its lease identity
	// across the fleet and the redirect hint standbys hand to clients.
	Self string
	// Peers are the other replicas' base URLs (replication and
	// snapshot targets).
	Peers []string
	// Workers is the worker fleet; its witnesses are the electorate.
	Workers []string
	// LeaseTTL is the leadership lease duration (default 3s). Smaller
	// means faster failover and more lease traffic.
	LeaseTTL time.Duration
	// ElectionInterval paces a follower's campaigns (default
	// LeaseTTL/2, jittered so rival candidates desynchronize).
	ElectionInterval time.Duration
	// RenewInterval paces the leader's lease renewals (default
	// LeaseTTL/3: two full retries fit inside one TTL).
	RenewInterval time.Duration
	// SnapshotInterval paces a follower's journal catch-up fetches from
	// the known leader (default 4×LeaseTTL).
	SnapshotInterval time.Duration
	// Journal is this replica's durable journal (required).
	Journal HAJournal
	// Coordinator templates the per-term coordinator; Workers, Journal,
	// Term, LeaseValid, Registry, Client and CompactJournal are
	// overridden per term.
	Coordinator Config
	// MaxSweeps and SweepTimeout configure the leader's sweep server.
	MaxSweeps    int
	SweepTimeout time.Duration
	// Registry receives cluster_term, cluster_is_leader,
	// cluster_replication_lag_records and friends; nil creates one.
	Registry *telemetry.Registry
	// Client is used for leases, replication and snapshots; nil uses a
	// default.
	Client *http.Client
	// Log, when non-nil, receives one line per HA event.
	Log io.Writer
	// Seed makes election jitter deterministic in tests.
	Seed int64
	// OnShardDone, when non-nil, observes every merged shard together
	// with the term it merged under (the split-brain soak's
	// fencing-order assertion); it replaces Coordinator.OnShardDone.
	OnShardDone func(term uint64, worker string, shard Shard)
}

// HANode is one coordinator replica. Create with NewHANode, mount
// Handler on an HTTP server, stop with Close.
type HANode struct {
	cfg      HAConfig
	m        *HAMetrics
	client   *http.Client
	registry *telemetry.Registry
	repl     *replicator
	rng      *lockedRand

	// applyMu serializes journal writes that arrive from peers
	// (replication batches, snapshot lines) so their check-then-append
	// is atomic.
	applyMu sync.Mutex

	// mu guards the role state. Peer applies hold it shared for their
	// whole write so a leadership flip (exclusive) cannot interleave a
	// takeover's merges with a deposed leader's stragglers.
	mu           sync.RWMutex
	role         string
	term         uint64 // term currently led (meaningful while leader)
	maxSeen      uint64 // highest term observed anywhere
	leaderHint   string // best known leader URL ("" when unknown)
	leaseUntil   time.Time
	coord        *Coordinator
	srv          *Server
	leaderCancel context.CancelFunc
	lastSnap     time.Time

	stop chan struct{}
	done chan struct{}
}

// NewHANode builds and starts one replica: its election loop begins
// immediately.
func NewHANode(cfg HAConfig) (*HANode, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: HA replica needs -self, its advertised URL")
	}
	if cfg.Journal == nil {
		return nil, fmt.Errorf("cluster: HA replica needs a durable journal")
	}
	workers, err := dedupeWorkers(cfg.Workers)
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.LeaseTTL < MinLeaseTTL || cfg.LeaseTTL > MaxLeaseTTL {
		return nil, fmt.Errorf("cluster: lease ttl %s outside [%s, %s]", cfg.LeaseTTL, MinLeaseTTL, MaxLeaseTTL)
	}
	if cfg.ElectionInterval <= 0 {
		cfg.ElectionInterval = cfg.LeaseTTL / 2
	}
	if cfg.RenewInterval <= 0 {
		cfg.RenewInterval = cfg.LeaseTTL / 3
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 4 * cfg.LeaseTTL
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	n := &HANode{
		cfg:      cfg,
		client:   cfg.Client,
		registry: cfg.Registry,
		rng:      newLockedRand(cfg.Seed),
		role:     RoleFollower,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.repl = newReplicator(cfg.Peers, cfg.Self, n.client, n.senderTerm)
	n.m = NewHAMetrics(cfg.Registry, n.repl.lag)
	n.repl.m = n.m
	go n.run()
	return n, nil
}

// Registry exposes the replica's metrics registry.
func (n *HANode) Registry() *telemetry.Registry { return n.registry }

func (n *HANode) logf(format string, args ...any) {
	if n.cfg.Log == nil {
		return
	}
	fmt.Fprintf(n.cfg.Log, "ha: "+format+"\n", args...)
}

// quorum is the witness majority: strictly more than half the fleet.
func (n *HANode) quorum() int { return len(n.cfg.Workers)/2 + 1 }

// IsLeader reports whether this replica currently believes it leads.
func (n *HANode) IsLeader() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.role == RoleLeader
}

// Term returns the term this replica led most recently (0 if never).
func (n *HANode) Term() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.term
}

// senderTerm is the replicator's view: the live term while leading, 0
// otherwise (a deposed leader's queued batches are dropped unsent).
func (n *HANode) senderTerm() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.role != RoleLeader {
		return 0
	}
	return n.term
}

// Close stops the replica: the election loop exits, leadership (if
// held) is relinquished, running sweeps are cancelled without drain —
// deliberately crash-shaped, so tests exercising takeover see the same
// journal state a SIGKILL would leave.
func (n *HANode) Close() {
	select {
	case <-n.stop:
		return
	default:
	}
	close(n.stop)
	<-n.done
	n.stepDown("shutdown")
	n.repl.close()
}

// run is the replica's single control loop: campaign while following,
// renew while leading.
func (n *HANode) run() {
	defer close(n.done)
	for {
		var wait time.Duration
		if n.IsLeader() {
			wait = n.cfg.RenewInterval
		} else {
			// Jitter desynchronizes rival candidates so split elections
			// converge instead of colliding forever.
			wait = n.cfg.ElectionInterval + time.Duration(n.rng.Int63n(int64(n.cfg.ElectionInterval)/2+1))
		}
		select {
		case <-n.stop:
			return
		case <-time.After(wait):
		}
		if n.IsLeader() {
			n.renew()
		} else {
			n.maybeSnapshotSync()
			n.campaign()
		}
	}
}

// campaign attempts to win the next term. Against a healthy leader
// this is harmless: witnesses deny higher terms while their lease is
// live, and the denials teach the candidate the current term and
// holder.
func (n *HANode) campaign() {
	n.mu.RLock()
	term := max(n.maxSeen, n.term) + 1
	n.mu.RUnlock()
	start := time.Now() // before any request: the conservative lease epoch
	grants, hiTerm, hiHolder := n.requestLeases(term)
	n.mu.Lock()
	if hiTerm > n.maxSeen {
		n.maxSeen = hiTerm
	}
	if hiHolder != "" {
		n.leaderHint = hiHolder
	}
	n.mu.Unlock()
	if grants >= n.quorum() {
		n.becomeLeader(term, start)
	}
}

// renew extends the leadership lease. Losing a round is tolerated
// while the old lease still runs (a network blip must not depose a
// healthy leader); losing it past expiry — or seeing a higher term —
// is a deposition.
func (n *HANode) renew() {
	n.mu.RLock()
	term := n.term
	n.mu.RUnlock()
	start := time.Now()
	grants, hiTerm, _ := n.requestLeases(term)
	if grants >= n.quorum() {
		n.mu.Lock()
		if n.role == RoleLeader && n.term == term {
			n.leaseUntil = start.Add(n.cfg.LeaseTTL)
		}
		n.mu.Unlock()
		return
	}
	n.mu.RLock()
	lapsed := !time.Now().Before(n.leaseUntil)
	n.mu.RUnlock()
	if hiTerm > term {
		n.stepDown(fmt.Sprintf("witnessed term %d above own %d", hiTerm, term))
	} else if lapsed {
		n.stepDown(fmt.Sprintf("lease expired with %d/%d grants", grants, n.quorum()))
	}
}

// requestLeases asks every witness for term concurrently and tallies
// grants, the highest term seen, and that term's holder.
func (n *HANode) requestLeases(term uint64) (grants int, hiTerm uint64, hiHolder string) {
	body, err := json.Marshal(LeaseRequest{
		Candidate: n.cfg.Self, Term: term, TTLMs: int64(n.cfg.LeaseTTL / time.Millisecond)})
	if err != nil {
		return 0, 0, ""
	}
	timeout := n.cfg.ElectionInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	results := make(chan *LeaseResponse, len(n.cfg.Workers))
	for _, w := range n.cfg.Workers {
		go func(w string) {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, w+"/v1/lease", bytes.NewReader(body))
			if err != nil {
				results <- nil
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := n.client.Do(req)
			if err != nil {
				results <- nil
				return
			}
			defer resp.Body.Close()
			var lr LeaseResponse
			if resp.StatusCode != http.StatusOK || json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&lr) != nil {
				results <- nil
				return
			}
			results <- &lr
		}(w)
	}
	for range n.cfg.Workers {
		lr := <-results
		if lr == nil {
			continue
		}
		if lr.Granted {
			grants++
		}
		if lr.Term > hiTerm {
			hiTerm, hiHolder = lr.Term, lr.Holder
		} else if lr.Term == hiTerm && hiHolder == "" {
			hiHolder = lr.Holder
		}
	}
	return grants, hiTerm, hiHolder
}

// leaseValidFor builds the merge gate for one term: leadership of
// exactly that term, lease unexpired on the monotonic clock. The
// lease epoch is captured before the first lease request went out, so
// this node's view always expires no later than any witness's.
func (n *HANode) leaseValidFor(term uint64) func() bool {
	return func() bool {
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.role == RoleLeader && n.term == term && time.Now().Before(n.leaseUntil)
	}
}

// becomeLeader installs the per-term coordinator and sweep server and
// kicks off takeover resumption. It holds mu exclusively, which waits
// out any in-flight replicate/snapshot applies — from the first merge
// of this term onward, no peer write can interleave.
func (n *HANode) becomeLeader(term uint64, start time.Time) {
	n.mu.Lock()
	if n.role == RoleLeader || n.isStopped() {
		n.mu.Unlock()
		return
	}
	rj := &replJournal{j: n.cfg.Journal, repl: n.repl}
	ccfg := n.cfg.Coordinator
	ccfg.Workers = n.cfg.Workers
	ccfg.Journal = rj
	ccfg.Term = term
	ccfg.LeaseValid = n.leaseValidFor(term)
	ccfg.Registry = n.registry
	ccfg.Client = n.client
	ccfg.CompactJournal = true
	if ccfg.Log == nil {
		ccfg.Log = n.cfg.Log
	}
	if n.cfg.OnShardDone != nil {
		hook := n.cfg.OnShardDone
		ccfg.OnShardDone = func(worker string, sh Shard) { hook(term, worker, sh) }
	}
	coord, err := New(ccfg)
	if err != nil {
		n.mu.Unlock()
		n.logf("%s won term %d but cannot build a coordinator: %v", n.cfg.Self, term, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := NewServer(ServerConfig{
		Coordinator:  coord,
		MaxSweeps:    n.cfg.MaxSweeps,
		SweepTimeout: n.cfg.SweepTimeout,
		Log:          n.cfg.Log,
		BaseContext:  ctx,
		OnSweepAccepted: func(fp string, grid GainGrid) error {
			return n.recordSweepGrid(rj, fp, grid)
		},
		OnSweepDone: func(fp string, out *Output) {
			n.recordSweepDone(rj, fp, out)
		},
	})
	if err != nil {
		coord.Close()
		cancel()
		n.mu.Unlock()
		n.logf("%s won term %d but cannot build a server: %v", n.cfg.Self, term, err)
		return
	}
	n.role = RoleLeader
	n.term = term
	n.maxSeen = max(n.maxSeen, term)
	n.leaderHint = n.cfg.Self
	n.leaseUntil = start.Add(n.cfg.LeaseTTL)
	n.coord = coord
	n.srv = srv
	n.leaderCancel = cancel
	n.mu.Unlock()
	n.m.Term.Set(float64(term))
	n.m.IsLeader.Set(1)
	n.m.Elections.Inc()
	n.logf("%s leads at term %d (%d witnesses)", n.cfg.Self, term, len(n.cfg.Workers))
	go n.resumeSweeps(ctx, srv)
}

// stepDown relinquishes leadership: every running sweep's context is
// cancelled and the per-term coordinator is closed. The journal keeps
// everything merged so far; the next leader resumes from it.
func (n *HANode) stepDown(reason string) {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	term := n.term
	coord, cancel := n.coord, n.leaderCancel
	n.role = RoleFollower
	n.coord, n.srv, n.leaderCancel = nil, nil, nil
	n.mu.Unlock()
	cancel()
	coord.Close()
	n.m.IsLeader.Set(0)
	n.m.StepDowns.Inc()
	n.logf("%s stepped down from term %d: %s", n.cfg.Self, term, reason)
}

func (n *HANode) isStopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// recordSweepGrid journals an accepted sweep's grid (replicated like
// every other record) so a successor can decode and resume it.
func (n *HANode) recordSweepGrid(j Journal, fp string, grid GainGrid) error {
	key := SweepGridKey(fp)
	if _, ok := j.Lookup(key); ok {
		return nil
	}
	raw, err := json.Marshal(grid)
	if err != nil {
		return err
	}
	return j.Record(key, raw)
}

// recordSweepDone seals a completed sweep. Failure is logged, not
// fatal: the worst case is a successor re-running a sweep whose every
// shard replays from the journal.
func (n *HANode) recordSweepDone(j Journal, fp string, out *Output) {
	key := SweepDoneKey(fp)
	if _, ok := j.Lookup(key); ok {
		return
	}
	raw, err := json.Marshal(struct {
		Points int `json:"points"`
	}{out.Points})
	if err == nil {
		err = j.Record(key, raw)
	}
	if err != nil {
		n.logf("sweep %0.12s done marker not journaled: %v", fp, err)
	}
}

// resumeSweeps scans the journal for sweeps that started (grid
// recorded) but never finished (no done marker) and re-runs them
// through the same coalescing path clients use — a client resubmitting
// after failover joins the resumed run instead of racing it. Shards
// already journaled replay; only the tail is re-executed.
func (n *HANode) resumeSweeps(ctx context.Context, srv *Server) {
	for _, key := range n.cfg.Journal.Keys() {
		fp, ok := strings.CutPrefix(key, "sweep-grid:")
		if !ok {
			continue
		}
		if _, done := n.cfg.Journal.Lookup(SweepDoneKey(fp)); done {
			continue
		}
		raw, ok := n.cfg.Journal.Lookup(key)
		if !ok {
			continue
		}
		var grid GainGrid
		if err := json.Unmarshal(raw, &grid); err != nil {
			n.logf("takeover: sweep %0.12s grid record undecodable: %v", fp, err)
			continue
		}
		n.logf("takeover: resuming sweep %0.12s", fp)
		go func(fp string, grid GainGrid) {
			for ctx.Err() == nil {
				_, err := srv.Submit(ctx, grid)
				switch {
				case err == nil:
					n.logf("takeover: sweep %0.12s resumed to completion", fp)
					return
				case errors.Is(err, ErrSweepsBusy):
					select {
					case <-time.After(n.cfg.RenewInterval):
					case <-ctx.Done():
						return
					}
				case ctx.Err() != nil:
					return
				default:
					n.logf("takeover: sweep %0.12s resume failed: %v", fp, err)
					return
				}
			}
		}(fp, grid)
	}
}

// applyRecords writes peer-delivered records into the local journal,
// skipping a record only when the journal already holds the same bytes,
// so a leader's superseding write (a revoked shard's honest row, a
// healed row) replaces the stale value here too. It runs
// under mu held shared — a leadership flip excludes it — and applyMu —
// concurrent applies serialize. Only followers apply; the caller has
// checked the role under the same RLock.
func (n *HANode) applyRecords(recs []ReplicateRecord) (applied int, err error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	for _, rec := range recs {
		if old, ok := n.cfg.Journal.Lookup(rec.Key); ok && bytes.Equal(old, rec.Val) {
			continue
		}
		if err := n.cfg.Journal.Record(rec.Key, rec.Val); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// maybeSnapshotSync catches this follower up from the known leader's
// full journal snapshot, paced by SnapshotInterval. Live replication
// makes this a no-op in the common case; it exists for the standby
// that was down (or partitioned) while the stream moved on.
func (n *HANode) maybeSnapshotSync() {
	n.mu.RLock()
	hint := n.leaderHint
	due := time.Since(n.lastSnap) >= n.cfg.SnapshotInterval
	n.mu.RUnlock()
	if !due || hint == "" || hint == n.cfg.Self {
		return
	}
	n.mu.Lock()
	n.lastSnap = time.Now() // even on failure: do not hammer a dead hint
	n.mu.Unlock()
	if err := n.snapshotSync(hint); err != nil {
		n.logf("snapshot sync from %s failed: %v", hint, err)
	}
}

// snapshotSync streams src's journal and applies every record absent
// locally.
func (n *HANode) snapshotSync(src string) error {
	ctx, cancel := context.WithTimeout(context.Background(), max(4*n.cfg.LeaseTTL, 10*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src+"/v1/journal", nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot source answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), MaxWireBytes+1)
	total := 0
	var batch []ReplicateRecord
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n.mu.RLock()
		if n.role == RoleLeader {
			n.mu.RUnlock()
			return fmt.Errorf("became leader mid-snapshot; aborting apply")
		}
		applied, err := n.applyRecords(batch)
		n.mu.RUnlock()
		total += applied
		batch = batch[:0]
		return err
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec ReplicateRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" || !json.Valid(rec.Val) {
			continue // one bad line must not void the rest of the snapshot
		}
		batch = append(batch, rec)
		if len(batch) >= 256 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	n.m.SnapshotSyncs.Inc()
	if total > 0 {
		n.m.AppliedRecords.Add(uint64(total))
		n.logf("snapshot sync from %s applied %d records", src, total)
	}
	return nil
}

// replJournal is the journal the leading coordinator writes through:
// local append first (durability), then an asynchronous fan-out to
// every standby. Its own Lookup-before-Record check (under mu) makes
// concurrent writers of the same bytes for a key append once; different
// bytes supersede the stored value, as merge's force-records require.
type replJournal struct {
	mu   sync.Mutex
	j    HAJournal
	repl *replicator
}

func (r *replJournal) Lookup(key string) ([]byte, bool) { return r.j.Lookup(key) }
func (r *replJournal) Keys() []string                   { return r.j.Keys() }
func (r *replJournal) Len() int                         { return r.j.Len() }

func (r *replJournal) Record(key string, val []byte) error {
	r.mu.Lock()
	if old, ok := r.j.Lookup(key); ok && bytes.Equal(old, val) {
		r.mu.Unlock()
		return nil
	}
	if err := r.j.Record(key, val); err != nil {
		r.mu.Unlock()
		return err
	}
	r.mu.Unlock()
	r.repl.enqueue(key, val)
	return nil
}

// replicator fans journal records out to standbys: one ordered,
// bounded queue per peer (order preserves rows-before-done-marker per
// shard), batched sends, drop-on-overflow. Dropped or failed batches
// are healed by snapshot catch-up; the lag gauge is the live queue
// depth.
type replicator struct {
	peers  []string
	self   string
	client *http.Client
	term   func() uint64 // live leadership term; 0 silences the stream
	m      *HAMetrics
	queues []chan ReplicateRecord
	stop   chan struct{}
	wg     sync.WaitGroup
}

const (
	replQueueCap = 8192
	replBatchMax = 256
)

func newReplicator(peers []string, self string, client *http.Client, term func() uint64) *replicator {
	r := &replicator{
		peers:  peers,
		self:   self,
		client: client,
		term:   term,
		queues: make([]chan ReplicateRecord, len(peers)),
		stop:   make(chan struct{}),
	}
	for i := range peers {
		r.queues[i] = make(chan ReplicateRecord, replQueueCap)
		r.wg.Add(1)
		go r.pump(i)
	}
	return r
}

func (r *replicator) close() {
	close(r.stop)
	r.wg.Wait()
}

// lag is the total records queued and not yet sent, across peers.
func (r *replicator) lag() float64 {
	total := 0
	for i := range r.queues {
		total += len(r.queues[i])
	}
	return float64(total)
}

func (r *replicator) enqueue(key string, val []byte) {
	if len(r.queues) == 0 {
		return
	}
	rec := ReplicateRecord{Key: key, Val: append(json.RawMessage(nil), val...)}
	for i := range r.queues {
		select {
		case r.queues[i] <- rec:
		default:
			// Peer too far behind: drop from the stream, count it, and
			// let the snapshot path heal it. Blocking here would let one
			// dead standby stall every merge.
			if r.m != nil {
				r.m.ReplDropped.Inc()
			}
		}
	}
}

func (r *replicator) pump(i int) {
	defer r.wg.Done()
	for {
		var batch []ReplicateRecord
		select {
		case rec := <-r.queues[i]:
			batch = append(batch, rec)
		case <-r.stop:
			return
		}
	drain:
		for len(batch) < replBatchMax {
			select {
			case rec := <-r.queues[i]:
				batch = append(batch, rec)
			default:
				break drain
			}
		}
		r.send(i, batch)
	}
}

func (r *replicator) send(i int, batch []ReplicateRecord) {
	term := r.term()
	if term == 0 {
		// Not leading (anymore): a deposed leader must not stream its
		// stragglers into the new leader's journal epoch.
		if r.m != nil {
			r.m.ReplDropped.Add(uint64(len(batch)))
		}
		return
	}
	body, err := json.Marshal(ReplicateRequest{Term: term, From: r.self, Records: batch})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.peers[i]+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		if r.m != nil {
			r.m.ReplDropped.Add(uint64(len(batch)))
		}
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if r.m != nil {
			r.m.ReplicatedRecords.Add(uint64(len(batch)))
		}
	} else if r.m != nil {
		r.m.ReplDropped.Add(uint64(len(batch)))
	}
}

// SnapshotRecords lists a journal's records sorted by key — the
// /v1/journal payload shape shared by server and tests.
func SnapshotRecords(j HAJournal) []ReplicateRecord {
	keys := j.Keys()
	sort.Strings(keys)
	out := make([]ReplicateRecord, 0, len(keys))
	for _, k := range keys {
		if v, ok := j.Lookup(k); ok {
			out = append(out, ReplicateRecord{Key: k, Val: v})
		}
	}
	return out
}
