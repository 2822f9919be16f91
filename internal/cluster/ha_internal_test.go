package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/runstate"
	"bcnphase/internal/telemetry"
)

func TestDedupeWorkers(t *testing.T) {
	got, err := dedupeWorkers([]string{"http://a", "http://b", "http://a", "http://c", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a", "http://b", "http://c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupeWorkers = %v, want %v", got, want)
	}
	if _, err := dedupeWorkers([]string{"http://a", ""}); err == nil {
		t.Error("empty worker URL accepted")
	}
	if _, err := dedupeWorkers([]string{"\t "}); err == nil {
		t.Error("whitespace worker URL accepted")
	}
	if _, err := dedupeWorkers(nil); err == nil {
		t.Error("empty fleet accepted")
	}
}

// TestRingDedupeWeight is the satellite-2 guarantee: a worker URL
// repeated on the command line must not carry double placement weight.
// The ring built from the deduped list is *identical* to one built
// from the unique list, so every key's owner — and therefore every
// worker's share — is exactly what a clean invocation yields.
func TestRingDedupeWeight(t *testing.T) {
	unique := []string{"http://w0", "http://w1", "http://w2"}
	doubled := []string{"http://w0", "http://w0", "http://w1", "http://w0", "http://w2"}
	deduped, err := dedupeWorkers(doubled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deduped, unique) {
		t.Fatalf("dedupeWorkers(%v) = %v, want %v", doubled, deduped, unique)
	}
	clean, fromDup := newRing(unique), newRing(deduped)
	shares := make([]int, len(unique))
	for i := 0; i < 500; i++ {
		k := DoneKey("fp-ring-weight", i)
		a, b := clean.owner(k, nil), fromDup.owner(k, nil)
		if a != b {
			t.Fatalf("key %s: owner %d from unique list, %d after dedupe", k, a, b)
		}
		shares[a]++
	}
	// Sanity: the duplicated worker did not end up with a majority of
	// the keyspace (with doubled weight w0 would own ~half; deduped it
	// owns ~a third).
	if shares[0] > 300 {
		t.Errorf("worker 0 owns %d/500 keys; duplicate entries still inflate weight?", shares[0])
	}
}

// TestHeartbeatMonotonicDeadline is the satellite-1 guarantee: a
// worker is marked lost only when BOTH HeartbeatMisses consecutive
// probes failed AND the monotonic clock (time.Since a time.Time
// captured at the last healthy probe) covers that many intervals. A
// burst of back-to-back failures — what a stalled ticker or a
// wall-clock step produces — cannot take a recently-healthy worker
// down.
func TestHeartbeatMonotonicDeadline(t *testing.T) {
	c, err := New(Config{
		Workers:           []string{"http://w0", "http://w1"},
		HeartbeatInterval: -1, // loop disabled; we drive noteHeartbeat directly
		HeartbeatMisses:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.cfg.HeartbeatInterval = 50 * time.Millisecond
	deadline := 3 * c.cfg.HeartbeatInterval
	probeErr := errContext("probe failed")

	// A burst of failures with a fresh lastSeen: misses saturate but the
	// monotonic deadline has not passed, so the worker stays up.
	c.mu.Lock()
	c.lastSeen[0] = time.Now()
	c.mu.Unlock()
	for i := 0; i < 5; i++ {
		c.noteHeartbeat(0, time.Now(), WorkerStatus{}, probeErr)
	}
	c.mu.Lock()
	alive, misses := c.alive[0], c.misses[0]
	c.mu.Unlock()
	if !alive {
		t.Fatalf("worker lost after %d back-to-back failures inside one interval", misses)
	}
	if misses < 3 {
		t.Fatalf("misses = %d after 5 failures, want >= 3", misses)
	}

	// Same miss count with the monotonic deadline genuinely elapsed: lost.
	c.mu.Lock()
	c.lastSeen[0] = time.Now().Add(-deadline)
	c.mu.Unlock()
	c.noteHeartbeat(0, time.Now(), WorkerStatus{}, probeErr)
	c.mu.Lock()
	alive = c.alive[0]
	c.mu.Unlock()
	if alive {
		t.Fatal("worker still up with misses and monotonic deadline both exceeded")
	}

	// A healthy probe resets both the counter and the epoch.
	tick := time.Now()
	c.noteHeartbeat(0, tick, WorkerStatus{}, nil)
	c.mu.Lock()
	alive, misses = c.alive[0], c.misses[0]
	seen := c.lastSeen[0]
	c.mu.Unlock()
	if !alive || misses != 0 || !seen.Equal(tick) {
		t.Fatalf("recovery: alive=%v misses=%d lastSeen=%v, want true/0/%v", alive, misses, seen, tick)
	}

	// Deadline elapsed but misses below threshold (e.g. probes that
	// succeeded in between): stays up.
	c.mu.Lock()
	c.lastSeen[1] = time.Now().Add(-10 * deadline)
	c.misses[1] = 0
	c.mu.Unlock()
	c.noteHeartbeat(1, time.Now(), WorkerStatus{}, probeErr)
	c.mu.Lock()
	alive = c.alive[1]
	c.mu.Unlock()
	if !alive {
		t.Fatal("worker lost on a single miss; consecutive-miss threshold ignored")
	}
}

// errContext is a trivial error type so the test does not depend on a
// specific probe error.
type errContext string

func (e errContext) Error() string { return string(e) }

func TestLeaseRequestValidate(t *testing.T) {
	ok := LeaseRequest{Candidate: "http://c0", Term: 1, TTLMs: 3000}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []LeaseRequest{
		{Candidate: "", Term: 1, TTLMs: 3000},
		{Candidate: "http://c0", Term: 0, TTLMs: 3000},
		{Candidate: "http://c0", Term: 1, TTLMs: 1},
		{Candidate: "http://c0", Term: 1, TTLMs: int64(MaxLeaseTTL/time.Millisecond) + 1},
	}
	for i, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("case %d: invalid lease request %+v accepted", i, req)
		}
	}
}

// tailPair is a leading replica serving its journal tail over HTTP and
// a following replica whose tail rounds (catchUp) the test drives by
// hand. Neither runs its election loop.
type tailPair struct {
	leader, follower *HANode
	lj, fj           *runstate.Journal
	ts               *httptest.Server
}

func newTailPair(t *testing.T) *tailPair {
	t.Helper()
	open := func() *runstate.Journal {
		j, err := runstate.OpenJournal(filepath.Join(t.TempDir(), runstate.JournalFileName))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return j
	}
	p := &tailPair{lj: open(), fj: open()}
	var h handlerSlot
	p.ts = httptest.NewServer(&h)
	t.Cleanup(p.ts.Close)
	p.leader = &HANode{cfg: HAConfig{Self: p.ts.URL, Journal: p.lj}, role: RoleLeader, term: 1,
		leaderHint: p.ts.URL, m: NewHAMetrics(nil), registry: telemetry.NewRegistry()}
	h.Store(p.leader.Handler())
	p.follower = &HANode{cfg: HAConfig{Self: "http://follower.invalid", Journal: p.fj, ElectionInterval: 10 * time.Second},
		client: p.ts.Client(), role: RoleFollower, leaderHint: p.ts.URL, m: NewHAMetrics(telemetry.NewRegistry())}
	return p
}

// handlerSlot serves whatever handler was last stored in it.
type handlerSlot struct{ atomic.Value }

func (h *handlerSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.Load().(http.Handler).ServeHTTP(w, r)
}

// applied is the follower's cluster_applied_records_total.
func (p *tailPair) applied() uint64 { return p.follower.m.AppliedRecords.Value() }

// journalLines reads a journal file's lines.
func journalLines(t *testing.T, j *runstate.Journal) []string {
	t.Helper()
	raw, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// TestTailIdempotent: repeated writes of one value for one key append
// exactly once to the leader's file, and the follower tailing it applies
// that record once however often it re-tails from cursor zero.
func TestTailIdempotent(t *testing.T) {
	p := newTailPair(t)
	for i := 0; i < 10; i++ {
		if err := p.lj.Record("k", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.lj.Lookup("k"); !ok {
		t.Error("recorded key not visible through Lookup")
	}
	if got := len(p.lj.Keys()); got != 1 {
		t.Errorf("journal holds %d keys after 10 writes of one key, want 1", got)
	}
	if got := len(journalLines(t, p.lj)); got != 1 {
		t.Errorf("leader file holds %d lines after 10 writes of one value, want 1", got)
	}
	for i := 0; i < 3; i++ {
		p.follower.tail.at = runstate.Cursor{}
		p.follower.catchUp()
	}
	if got := p.applied(); got != 1 {
		t.Errorf("follower applied %d records over three tails from zero, want 1", got)
	}
	if v, _ := p.fj.Lookup("k"); string(v) != `{"v":1}` {
		t.Errorf("follower holds %s, want {\"v\":1}", v)
	}
}

// TestTailSupersedes: merge force-records a revoked shard's honest rows
// over the rows a quarantined liar left behind. That superseding write
// must land in the leader's memory, on its disk after a reopen, and at
// a follower that tailed the lie before it; a repeat of the stored bytes
// writes no line, and a re-tail from cursor zero applies nothing.
func TestTailSupersedes(t *testing.T) {
	p := newTailPair(t)
	lie := appendRowJSON(nil, &Row{CSV: "0.5,0.5,0.5,0,LIE"})
	honest := appendRowJSON(nil, &Row{CSV: "0.5,0.5,0.5,0,ok"})
	for _, val := range [][]byte{lie, lie, nil, honest, honest} {
		if val == nil {
			p.follower.catchUp()
			continue
		}
		if err := p.lj.Record("pt", val); err != nil {
			t.Fatal(err)
		}
	}
	assertNoLies(t, p.lj, p.lj.Lookup)
	if got := len(journalLines(t, p.lj)); got != 2 {
		t.Errorf("leader file holds %d lines, want 2 (the lie, then the honest row)", got)
	}

	p.follower.catchUp()
	if got := p.applied(); got != 2 {
		t.Errorf("follower applied %d records, want 2 (the lie, then the honest row)", got)
	}
	assertNoLies(t, p.fj, p.fj.Lookup)
	if f, l := journalLines(t, p.fj), journalLines(t, p.lj); !reflect.DeepEqual(f, l) {
		t.Errorf("follower lines differ from the leader's:\n%q\n%q", f, l)
	}
	p.follower.tail.at = runstate.Cursor{}
	p.follower.catchUp()
	if got := p.applied(); got != 2 {
		t.Errorf("a re-tail from cursor zero applied %d more records, want none", got-2)
	}
	assertNoLies(t, p.fj, p.fj.Lookup)

	if err := p.lj.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := runstate.OpenJournal(p.lj.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertNoLies(t, reopened, reopened.Lookup)
}

// TestTailFromZeroStagesToEnd: a tail from zero that spans several
// responses applies nothing until a read reaches the leader's end, so a
// follower that already holds the leader's latest values (as after a
// restart) never passes back through older ones: its re-tail rewrites
// nothing.
func TestTailFromZeroStagesToEnd(t *testing.T) {
	p := newTailPair(t)
	if err := p.lj.Record("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	filler := []byte(`"` + strings.Repeat("x", 1000) + `"`)
	var keys []string
	var vals [][]byte
	for i := 0; len(keys)*len(filler) < MaxWireBytes+len(filler); i++ {
		keys, vals = append(keys, fmt.Sprintf("f%d", i)), append(vals, filler)
	}
	if err := p.lj.RecordBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := p.lj.Record("k", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	p.follower.catchUp()
	if v, _ := p.fj.Lookup("k"); string(v) != `{"v":2}` || p.fj.Len() != p.lj.Len() {
		t.Fatalf("after one round the follower holds %d records and k=%s, want %d and v2", p.fj.Len(), v, p.lj.Len())
	}
	before := p.applied()
	p.follower.tail.at = runstate.Cursor{}
	p.follower.catchUp()
	if got := p.applied() - before; got != 0 {
		t.Errorf("a re-tail from zero over several responses rewrote %d records, want none", got)
	}
}

// TestFollowerKeepsSupersede drives one leader and one follower through
// the interleaving that rolled a follower back while it had two
// catch-up paths (a pushed stream and a snapshot): write v1, tail,
// supersede with v2, compact, tail again. The follower must end on v2
// and never hold v1 after having held v2.
func TestFollowerKeepsSupersede(t *testing.T) {
	p := newTailPair(t)
	var held []string
	step := func(do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatal(err)
		}
		v, _ := p.fj.Lookup("k")
		held = append(held, string(v))
	}
	tail := func() error { p.follower.catchUp(); return nil }
	step(func() error { return p.lj.Record("k", []byte(`{"v":1}`)) })
	step(tail)
	step(func() error { return p.lj.Record("k", []byte(`{"v":2}`)) })
	step(p.lj.Compact)
	step(tail)
	step(tail)
	leader, _ := p.lj.Lookup("k")
	if follower, _ := p.fj.Lookup("k"); string(follower) != string(leader) {
		t.Errorf("follower holds %s, leader holds %s", follower, leader)
	}
	sawV2 := false
	for i, v := range held {
		sawV2 = sawV2 || v == `{"v":2}`
		if sawV2 && v == `{"v":1}` {
			t.Fatalf("step %d: follower back on v1 after holding v2: %q", i, held)
		}
	}
}

// TestTailFencedBelowMaxSeen: a tail answered under a term below the
// highest the follower has seen comes from a deposed leader; nothing of
// it is applied.
func TestTailFencedBelowMaxSeen(t *testing.T) {
	p := newTailPair(t)
	if err := p.lj.Record("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	p.leader.mu.Lock()
	p.leader.term = 3
	p.leader.mu.Unlock()
	p.follower.maxSeen = 4
	p.follower.catchUp()
	if got := p.fj.Len(); got != 0 || p.applied() != 0 {
		t.Fatalf("follower applied %d records from a term-3 tail after seeing term 4", got)
	}
	p.follower.maxSeen = 3
	p.follower.catchUp()
	if got := p.fj.Len(); got != 1 {
		t.Fatalf("follower holds %d records after a current-term tail, want 1", got)
	}
}

// TestTailLeaderNeverApplies: a replica that leads does not apply a
// tail, even when it knows another replica's URL.
func TestTailLeaderNeverApplies(t *testing.T) {
	p := newTailPair(t)
	if err := p.lj.Record("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	p.follower.role = RoleLeader
	p.follower.catchUp()
	if got := p.fj.Len(); got != 0 || p.applied() != 0 {
		t.Fatalf("a leading replica applied %d tailed records", got)
	}
}

// TestTailWire: a non-leader answers the tail with 421 and a hint at the
// leader; a malformed or out-of-range cursor gets 400; a good cursor
// gets the lines past it with the leader's term and the next cursor.
func TestTailWire(t *testing.T) {
	p := newTailPair(t)
	for _, k := range []string{"a", "b"} {
		if err := p.lj.Record(k, []byte(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := p.ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	lines := journalLines(t, p.lj)
	first := int64(len(lines[0]) + 1)
	resp, body := get(fmt.Sprintf("%s/v1/journal?cursor=1:%d", p.ts.URL, first))
	if resp.StatusCode != http.StatusOK || string(body) != lines[1]+"\n" {
		t.Fatalf("tail past the first line = %d %q, want 200 %q", resp.StatusCode, body, lines[1]+"\n")
	}
	if got, want := resp.Header.Get(CursorHeader), fmt.Sprintf("1:%d", first+int64(len(body))); got != want {
		t.Errorf("next cursor %q, want %q", got, want)
	}
	if got := resp.Header.Get(TermHeader); got != "1" {
		t.Errorf("tail term header %q, want 1", got)
	}
	if resp, body := get(p.ts.URL + "/v1/journal"); resp.StatusCode != http.StatusOK || string(body) != strings.Join(lines, "\n")+"\n" {
		t.Errorf("tail without a cursor = %d %q, want 200 and every line", resp.StatusCode, body)
	}
	for _, cur := range []string{"x", "1", "1:-1", ":5", "1:5:5", "1:99999", "1:1"} {
		if resp, body := get(p.ts.URL + "/v1/journal?cursor=" + cur); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cursor %q answered %d %s, want 400", cur, resp.StatusCode, body)
		}
	}

	p.leader.mu.Lock()
	p.leader.role, p.leader.leaderHint = RoleFollower, "http://elsewhere.invalid"
	p.leader.mu.Unlock()
	resp, _ = get(p.ts.URL + "/v1/journal?cursor=0:0")
	if resp.StatusCode != http.StatusMisdirectedRequest || resp.Header.Get(NotLeaderHeader) != "http://elsewhere.invalid" {
		t.Errorf("non-leader tail answered %d with hint %q, want 421 and the leader's URL",
			resp.StatusCode, resp.Header.Get(NotLeaderHeader))
	}
}

// TestTailHungLeaderDoesNotDelayCampaign: a leader hint that accepts the
// connection and never answers must not keep the follower from
// campaigning: every campaign follows the previous one within two
// election ticks.
func TestTailHungLeaderDoesNotDelayCampaign(t *testing.T) {
	release := make(chan struct{})
	var tails atomic.Int64
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tails.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()

	var mu sync.Mutex
	var campaigns []time.Time
	witness := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		campaigns = append(campaigns, time.Now())
		mu.Unlock()
		haWriteJSON(w, http.StatusOK, LeaseResponse{Term: 7, Holder: hung.URL, TTLMsLeft: 1000})
	}))
	defer witness.Close()

	j, err := runstate.OpenJournal(filepath.Join(t.TempDir(), runstate.JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const tick = 200 * time.Millisecond
	n, err := NewHANode(HAConfig{Self: "http://self.invalid", Workers: []string{witness.URL}, Journal: j,
		LeaseTTL: 2 * tick, ElectionInterval: tick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer close(release) // before Close, which waits out a hung tail
	const rounds = 4
	deadline := time.Now().Add(rounds * 4 * tick)
	for {
		mu.Lock()
		got := len(campaigns)
		mu.Unlock()
		if got > rounds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d campaigns in %s", got, rounds*4*tick)
		}
		time.Sleep(tick / 4)
	}
	if tails.Load() == 0 {
		t.Fatal("the follower never tailed the hung leader hint")
	}
	mu.Lock()
	defer mu.Unlock()
	// A tick is the election interval plus up to half of it in jitter.
	for i := 1; i < len(campaigns); i++ {
		if gap := campaigns[i].Sub(campaigns[i-1]); gap > 2*(tick+tick/2) {
			t.Errorf("campaign %d came %s after the previous one, over two ticks", i, gap)
		}
	}
}
