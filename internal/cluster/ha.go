package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"bcnphase/internal/runstate"
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
// Durability is journal-first. The leader appends to its own journal
// synchronously, exactly like a single coordinator. Standbys catch up
// on one ordered path: once per election tick a follower tails the
// leader's journal file from a (generation, offset) cursor and applies
// the lines it gets with one RecordBatch, so it holds a prefix of the
// leader's history and never an older value after a newer one.
// Correctness never depends on how far a standby trails: a successor
// re-executes whatever its journal lacks (zero lost points) and every
// write path is Lookup-before-Record on content-hash keys (zero
// duplicated records). Catch-up exists to make takeover cheap, not
// correct.

// HA roles.
const (
	RoleFollower = "follower"
	RoleLeader   = "leader"
)

// HAConfig configures one coordinator replica.
type HAConfig struct {
	// Self is this replica's advertised base URL — its lease identity
	// across the fleet and the redirect hint standbys hand to clients.
	Self string
	// Peers are the other replicas' base URLs. They turn HA on and are
	// shown on /statusz; standbys find the leader through the witnesses.
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
	// Journal is this replica's durable journal (required).
	Journal *runstate.Journal
	// Coordinator templates the per-term coordinator; Workers, Journal,
	// Term, LeaseValid, Registry, Client and CompactJournal are
	// overridden per term.
	Coordinator Config
	// Registry receives cluster_term, cluster_is_leader,
	// cluster_replication_lag_records and friends; nil creates one.
	Registry *telemetry.Registry
	// Client is used for leases and journal tails; nil uses a default.
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
	rng      *lockedRand
	// tail is the follower's position in the leader's journal. Only the
	// control loop touches it: it is the one applier.
	tail tailCursor

	// mu guards the role state. A tail round holds it shared for its
	// apply so a leadership flip (exclusive) cannot interleave with it.
	mu           sync.RWMutex
	role         string
	term         uint64 // term currently led (meaningful while leader)
	maxSeen      uint64 // highest term observed anywhere
	leaderHint   string // best known leader URL ("" when unknown)
	leaseUntil   time.Time
	coord        *Coordinator
	srv          *Server
	leaderCancel context.CancelFunc

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
	n.m = NewHAMetrics(cfg.Registry)
	go n.run()
	return n, nil
}

func (n *HANode) logf(format string, args ...any) {
	if n.cfg.Log == nil {
		return
	}
	fmt.Fprintf(n.cfg.Log, "ha: "+format+"\n", args...)
}

// quorum is the witness majority: strictly more than half the fleet.
func (n *HANode) quorum() int { return len(n.cfg.Workers)/2 + 1 }

// isLeader reports whether this replica currently believes it leads.
func (n *HANode) isLeader() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.role == RoleLeader
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
}

// run is the replica's single control loop: campaign while following,
// renew while leading.
func (n *HANode) run() {
	defer close(n.done)
	for {
		var wait time.Duration
		if n.isLeader() {
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
		if n.isLeader() {
			n.renew()
		} else {
			n.catchUp()
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
// kicks off takeover resumption. It holds mu exclusively, so no tail
// apply can interleave with the first merge of this term.
func (n *HANode) becomeLeader(term uint64, start time.Time) {
	n.mu.Lock()
	if n.role == RoleLeader || n.isStopped() {
		n.mu.Unlock()
		return
	}
	ccfg := n.cfg.Coordinator
	ccfg.Workers = n.cfg.Workers
	ccfg.Journal = n.cfg.Journal
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
		Coordinator: coord,
		Log:         n.cfg.Log,
		BaseContext: ctx,
		OnSweepAccepted: func(fp string, grid GainGrid) error {
			return n.recordSweepGrid(fp, grid)
		},
		OnSweepDone: func(fp string, out *Output) {
			n.recordSweepDone(fp, out)
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
	n.m.ReplLag.Set(0)
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

// recordSweepGrid journals an accepted sweep's grid so a successor can
// decode and resume it.
func (n *HANode) recordSweepGrid(fp string, grid GainGrid) error {
	j := n.cfg.Journal
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
func (n *HANode) recordSweepDone(fp string, out *Output) {
	j := n.cfg.Journal
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

// tailCursor is a follower's position in one leader's journal: the
// leader's URL and term, and the cursor into its file. A tail that
// starts from zero of a generation (the first one, a restart, the
// leader's compaction) does not know where this replica's journal sits
// in that file, so its lines are staged and applied together once a
// read reaches the leader's end; from then on every response continues
// the applied prefix and is applied as it comes.
type tailCursor struct {
	leader    string
	term      uint64
	at        runstate.Cursor
	gathering bool
	staged    []byte
}

// catchUp runs one tail round against the known leader: it reads the
// leader's journal lines past this replica's cursor up to the leader's
// end and applies each response with one RecordBatch. The round is
// bounded by half an election interval, so a black-holed leader cannot
// delay the campaign that follows it. A new leader URL or term restarts
// the tail from zero. A response under a term below the highest this
// replica has seen comes from a deposed leader and is not applied.
func (n *HANode) catchUp() {
	n.mu.RLock()
	hint, floor, leading := n.leaderHint, n.maxSeen, n.role == RoleLeader
	n.mu.RUnlock()
	if leading || hint == "" || hint == n.cfg.Self {
		return
	}
	if hint != n.tail.leader {
		n.tail = tailCursor{leader: hint}
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionInterval/2)
	defer cancel()
	applied := 0
	defer func() { n.m.ReplLag.Set(float64(applied)) }()
	for {
		term, lines, next, more, err := n.fetchTail(ctx, hint, n.tail.at)
		if err != nil {
			n.logf("tail of %s failed: %v", hint, err)
			return
		}
		if term < floor {
			n.logf("tail of %s answered under term %d below %d; not applied", hint, term, floor)
			return
		}
		if term != n.tail.term && n.tail.at != (runstate.Cursor{}) {
			n.tail = tailCursor{leader: hint} // another leader's file
			continue
		}
		if next.Gen != n.tail.at.Gen { // these lines start at zero
			n.tail.gathering, n.tail.staged = true, n.tail.staged[:0]
		}
		n.tail.term, n.tail.at = term, next
		n.tail.staged = append(n.tail.staged, lines...)
		if more && n.tail.gathering {
			continue // read on to the leader's end before applying
		}
		k, ok := n.applyTail(hint, term)
		applied += k
		if !more || !ok {
			return
		}
	}
}

// applyTail applies the staged lines of a tail answered under term and
// reports how many records it wrote and whether the tail may go on.
func (n *HANode) applyTail(leader string, term uint64) (int, bool) {
	n.mu.RLock()
	if n.role == RoleLeader {
		n.mu.RUnlock()
		return 0, false
	}
	applied, bad, err := n.cfg.Journal.ApplyLines(n.tail.staged)
	n.mu.RUnlock()
	n.tail.gathering, n.tail.staged = false, n.tail.staged[:0]
	n.m.AppliedRecords.Add(uint64(applied))
	if bad > 0 {
		n.logf("tail of %s: %d undecodable lines dropped", leader, bad)
	}
	if err != nil {
		n.logf("tail of %s not applied: %v", leader, err)
		n.tail = tailCursor{leader: leader} // re-read from zero next round
		return applied, false
	}
	n.mu.Lock()
	n.maxSeen = max(n.maxSeen, term)
	n.mu.Unlock()
	return applied, true
}

// fetchTail is one GET /v1/journal round trip: the leader's term, its
// lines past cursor at, the cursor past them, and whether more remain.
func (n *HANode) fetchTail(ctx context.Context, leader string, at runstate.Cursor) (term uint64, lines []byte, next runstate.Cursor, more bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		leader+"/v1/journal?cursor="+url.QueryEscape(at.String()), nil)
	if err != nil {
		return 0, nil, at, false, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, at, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return 0, nil, at, false, fmt.Errorf("leader answered %d", resp.StatusCode)
	}
	if term, err = strconv.ParseUint(resp.Header.Get(TermHeader), 10, 64); err != nil {
		return 0, nil, at, false, fmt.Errorf("tail response without a term: %w", err)
	}
	if next, err = runstate.ParseCursor(resp.Header.Get(CursorHeader)); err != nil {
		return 0, nil, at, false, err
	}
	// A single line may run past the leader's cap; no line the program
	// writes comes near twice the wire ceiling.
	if lines, err = io.ReadAll(io.LimitReader(resp.Body, 2*MaxWireBytes)); err != nil {
		return 0, nil, at, false, err
	}
	return term, lines, next, resp.StatusCode == http.StatusPartialContent, nil
}
