package cluster

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bcnphase/internal/runstate"
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

// TestReplJournalIdempotent: repeated writes of one key through the
// replicating journal append exactly once. memJournal (cluster_test.go)
// errors on a duplicate Record, so any double-append fails the test.
func TestReplJournalIdempotent(t *testing.T) {
	mem := newMemJournal()
	rj := &replJournal{j: mem, repl: newReplicator(nil, "self", nil, func() uint64 { return 1 })}
	defer rj.repl.close()
	for i := 0; i < 10; i++ {
		if err := rj.Record("k", []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := rj.Lookup("k"); !ok {
		t.Error("recorded key not visible through Lookup")
	}
	if got := len(rj.Keys()); got != 1 {
		t.Errorf("journal holds %d keys after 10 writes of one key, want 1", got)
	}
}

// TestReplJournalSupersedes: merge force-records a revoked shard's honest
// rows over the rows a quarantined liar left behind. Through the
// leader's replicating journal over a real runstate.Journal, that
// superseding write must land — in memory, on disk and in the stream to
// the standbys — and a follower applying the stream must end with the
// honest row too. A repeat of the stored bytes is still skipped.
func TestReplJournalSupersedes(t *testing.T) {
	openJournal := func(dir string) *runstate.Journal {
		t.Helper()
		j, err := runstate.OpenJournal(filepath.Join(dir, runstate.JournalFileName))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	lie := appendRowJSON(nil, &Row{CSV: "0.5,0.5,0.5,0,LIE"})
	honest := appendRowJSON(nil, &Row{CSV: "0.5,0.5,0.5,0,ok"})

	dir := t.TempDir()
	lj := openJournal(dir)
	stream := make(chan ReplicateRecord, 8)
	rj := &replJournal{j: lj, repl: &replicator{queues: []chan ReplicateRecord{stream}}}
	for _, val := range [][]byte{lie, lie, honest, honest} {
		if err := rj.Record("pt", val); err != nil {
			t.Fatal(err)
		}
	}
	assertNoLies(t, rj, rj.Lookup)
	if got := len(stream); got != 2 {
		t.Errorf("replicated %d records, want 2 (the lie, then the honest row)", got)
	}
	if err := lj.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openJournal(dir)
	defer reopened.Close()
	assertNoLies(t, reopened, reopened.Lookup)

	var recs []ReplicateRecord
	for len(stream) > 0 {
		recs = append(recs, <-stream)
	}
	recs = append(recs, recs[len(recs)-1]) // a redelivered record changes nothing
	fj := openJournal(t.TempDir())
	defer fj.Close()
	n := &HANode{cfg: HAConfig{Journal: fj}}
	applied, err := n.applyRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("follower applied %d records, want 2 (the lie, then the honest row)", applied)
	}
	assertNoLies(t, fj, fj.Lookup)
}
