package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
)

// looseJournal is memJournal without the duplicate-record check: the
// revocation and healing paths force-record (supersede) keys on purpose,
// which a real runstate.Journal allows and the strict memJournal calls a
// bug. Tests exercising those paths use this variant.
type looseJournal struct{ memJournal }

func newLooseJournal() *looseJournal {
	return &looseJournal{memJournal{m: map[string][]byte{}}}
}

func (j *looseJournal) Record(key string, val []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.m[key] = append([]byte(nil), val...)
	return nil
}

// lyingIntercept answers shard jobs with plausible, correctly signed,
// wrong rows — the Byzantine worker the digest layer cannot catch.
func lyingIntercept(onFirst func()) func(http.ResponseWriter, *http.Request, *ShardSpec) bool {
	var once sync.Once
	return func(rw http.ResponseWriter, _ *http.Request, sh *ShardSpec) bool {
		once.Do(func() {
			if onFirst != nil {
				onFirst()
			}
		})
		rows := make([]Row, len(sh.Points))
		for i, pt := range sh.Points {
			rows[i] = Row{CSV: fmt.Sprintf("%.9g,%.9g,0.5,0,LIE", pt.Gi, pt.Gd)}
		}
		res := ShardResult{Index: sh.Index, Rows: rows}
		SignShardResult(&res)
		raw, _ := json.Marshal(shardArtifact{Key: "k", Kind: "shard", Shard: &res})
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write(raw)
		return true
	}
}

func assertNoLies(t *testing.T, j interface{ Keys() []string }, lookup func(string) ([]byte, bool)) {
	t.Helper()
	for _, key := range j.Keys() {
		if strings.HasPrefix(key, "shard-done:") {
			continue
		}
		if raw, ok := lookup(key); ok && strings.Contains(string(raw), "LIE") {
			t.Errorf("journal key %s still holds a Byzantine row: %s", key, raw)
		}
	}
}

func TestNewValidatesAuditFraction(t *testing.T) {
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := New(Config{Workers: []string{"http://a"}, AuditFraction: f}); err == nil {
			t.Errorf("audit fraction %v accepted", f)
		}
	}
	c, err := New(Config{Workers: []string{"http://a"}, AuditFraction: 1, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestAuditOutvotesAndQuarantinesByzantineWorker: three workers, one of
// them lying consistently (signed, plausible, wrong rows). With every
// shard audited, the first lie that reaches a quorum gets the liar
// quarantined, and no Byzantine row ever reaches the journal or the
// merged map.
func TestAuditOutvotesAndQuarantinesByzantineWorker(t *testing.T) {
	grid := testGrid(4) // 16 points, 8 shards at size 2
	liarTouched := make(chan struct{})
	liar := newFakeWorker(t, lyingIntercept(func() { close(liarTouched) }))
	// The honest workers hold their first responses until the liar has
	// received at least one shard, so the liar deterministically
	// participates in the sweep (work stealing guarantees it gets a job
	// while the others are parked).
	gate := func(http.ResponseWriter, *http.Request, *ShardSpec) bool {
		<-liarTouched
		return false
	}
	h1 := newFakeWorker(t, gate)
	h2 := newFakeWorker(t, gate)
	j := newMemJournal()
	c, err := New(Config{
		Workers: []string{liar.URL(), h1.URL(), h2.URL()}, ShardSize: 2,
		Journal: j, HeartbeatInterval: -1, AuditFraction: 1,
		RetryBase: time.Millisecond, RetryCap: 10 * time.Millisecond,
		MaxAttempts: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out.CSV), "fake") || strings.Contains(string(out.CSV), "LIE") {
		t.Errorf("merged CSV carries Byzantine rows:\n%s", out.CSV)
	}
	if string(out.CSV) != string(expectedCSV(grid)) {
		t.Error("merged CSV diverges from the honest single-node reference")
	}
	if got := c.m.AuditQuarantined.Value(); got != 1 {
		t.Errorf("cluster_audit_quarantined_workers_total = %d, want 1", got)
	}
	if got := c.m.AuditDivergent.Value(); got < 1 {
		t.Errorf("cluster_audit_divergent_shards_total = %d, want >= 1", got)
	}
	if got := c.m.AuditSampled.Value(); got < 8 {
		t.Errorf("cluster_audit_sampled_shards_total = %d, want >= 8", got)
	}
	if out.AuditedShards < 1 {
		t.Errorf("AuditedShards = %d, want >= 1", out.AuditedShards)
	}
	var liarSnap *WorkerBreakerStatus
	for _, s := range c.BreakerSnapshot() {
		if s.Worker == liar.URL() {
			s := s
			liarSnap = &s
		}
	}
	if liarSnap == nil || liarSnap.State != "quarantined" {
		t.Errorf("liar breaker snapshot = %+v, want quarantined", liarSnap)
	}
	if got := c.m.BreakerState.With(liar.URL()).Value(); got != qos.BreakerQuarantined {
		t.Errorf("liar breaker state gauge = %v, want quarantined (%v)", got, qos.BreakerQuarantined)
	}
	assertNoLies(t, j, j.Lookup)
}

// TestQuarantineRevokesUnauditedShards: the liar merges shards while
// auditing is dormant; once a later shard is sampled and the quorum
// convicts it, everything it merged without an audit is revoked,
// re-executed on honest workers, and the journal records superseded.
func TestQuarantineRevokesUnauditedShards(t *testing.T) {
	grid := testGrid(4) // 16 points, 16 shards at size 1
	var armed atomic.Bool
	armedCh := make(chan struct{})
	var liarJobs atomic.Int64
	var once sync.Once
	lie := lyingIntercept(nil)
	liar := newFakeWorker(t, func(rw http.ResponseWriter, r *http.Request, sh *ShardSpec) bool {
		if liarJobs.Add(1) > 2 {
			// From the third job on, hold the response until the test has
			// armed auditing — so exactly two lying shards merge unaudited.
			<-armedCh
		}
		return lie(rw, r, sh)
	})
	gate := func(http.ResponseWriter, *http.Request, *ShardSpec) bool {
		<-armedCh
		return false
	}
	h1 := newFakeWorker(t, gate)
	h2 := newFakeWorker(t, gate)
	j := newLooseJournal()
	c, err := New(Config{
		Workers: []string{liar.URL(), h1.URL(), h2.URL()}, ShardSize: 1,
		Journal: j, HeartbeatInterval: -1,
		RetryBase: time.Millisecond, RetryCap: 10 * time.Millisecond,
		MaxAttempts: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.cfg.auditFor = func(int) bool { return armed.Load() }

	done := make(chan struct{})
	var out *Output
	var runErr error
	go func() {
		defer close(done)
		out, runErr = c.Run(context.Background(), grid)
	}()

	// Wait until two Byzantine shards are durably merged, then arm the
	// audit and release everyone.
	waitFor(t, "two lying shards in the journal", func() bool {
		lies := 0
		for _, key := range j.Keys() {
			if raw, ok := j.Lookup(key); ok && strings.Contains(string(raw), "LIE") {
				lies++
			}
		}
		return lies >= 2
	})
	armed.Store(true)
	once.Do(func() { close(armedCh) })
	<-done

	if runErr != nil {
		t.Fatal(runErr)
	}
	if string(out.CSV) != string(expectedCSV(grid)) {
		t.Error("merged CSV diverges from the honest reference after revocation")
	}
	if out.Fresh != 16 {
		t.Errorf("Fresh = %d, want 16", out.Fresh)
	}
	if got := c.m.AuditQuarantined.Value(); got != 1 {
		t.Errorf("cluster_audit_quarantined_workers_total = %d, want 1", got)
	}
	if got := c.m.AuditRevoked.Value(); got != 2 {
		t.Errorf("cluster_audit_revoked_shards_total = %d, want 2", got)
	}
	assertNoLies(t, j, j.Lookup)
}

// TestDigestFailureIsTransientAndRetried: a result corrupted between
// worker and coordinator (valid envelope, broken signature) is retried
// on the same worker instead of condemning it.
func TestDigestFailureIsTransientAndRetried(t *testing.T) {
	grid := testGrid(3) // 9 points, one shard at size 64
	var corruptOnce atomic.Bool
	w := newFakeWorker(t, func(rw http.ResponseWriter, _ *http.Request, sh *ShardSpec) bool {
		if !corruptOnce.CompareAndSwap(false, true) {
			return false
		}
		res := ShardResult{Index: sh.Index, Rows: fakeRows(sh.Points)}
		SignShardResult(&res)
		res.Digest = strings.Repeat("0", 64) // in-flight corruption
		raw, _ := json.Marshal(shardArtifact{Key: "k", Kind: "shard", Shard: &res})
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write(raw)
		return true
	})
	c, err := New(Config{
		Workers: []string{w.URL()}, ShardSize: 64, HeartbeatInterval: -1,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, MaxAttempts: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.CSV) != string(expectedCSV(grid)) {
		t.Error("CSV diverges after digest retry")
	}
	if got := c.m.DigestFailures.Value(); got != 1 {
		t.Errorf("cluster_digest_failures_total = %d, want 1", got)
	}
	if got := c.m.Retries.Value(); got != 1 {
		t.Errorf("cluster_dispatch_retries_total = %d, want 1", got)
	}
	if got := w.requests.Load(); got != 2 {
		t.Errorf("worker saw %d requests, want 2 (corrupted then clean)", got)
	}
}

// TestCloseAbortsBackoffMidWait (satellite: bounded drain latency): a
// coordinator closed while a dispatch sits in a long jittered backoff
// returns immediately instead of finishing the wait.
func TestCloseAbortsBackoffMidWait(t *testing.T) {
	grid := testGrid(3) // one shard
	w := newFakeWorker(t, func(rw http.ResponseWriter, _ *http.Request, _ *ShardSpec) bool {
		rw.Header().Set("Retry-After", "30")
		rw.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(rw, `{"error":"shed","reason":"shed"}`)
		return true
	})
	c, err := New(Config{
		Workers: []string{w.URL()}, ShardSize: 64, HeartbeatInterval: -1,
		RetryBase: time.Second, RetryCap: time.Minute, MaxAttempts: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), grid)
		done <- err
	}()
	waitFor(t, "first dispatch attempt", func() bool { return w.requests.Load() >= 1 })
	began := time.Now()
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, runstate.ErrInterrupted) {
			t.Errorf("Run after Close = %v, want ErrInterrupted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked 5s after Close; backoff wait not aborted")
	}
	if drain := time.Since(began); drain > time.Second {
		t.Errorf("Close-to-return latency %v, want well under the 30s Retry-After window", drain)
	}
}

// TestScanJournalHealsInvalidRows (satellite: schema drift): a journal
// record whose CRC was fine but whose payload no longer re-validates as
// a row is counted, re-executed, and overwritten — never resurrected.
func TestScanJournalHealsInvalidRows(t *testing.T) {
	grid := testGrid(4) // 16 points, 4 shards at size 4
	fp, _, shards, err := PlanShards(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	j := newLooseJournal()
	marshal := func(r Row) []byte {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// Shard 0: fully journaled and sealed — pure replay.
	for i, key := range shards[0].Keys {
		j.put(key, marshal(fakeRow(shards[0].Points[i])))
	}
	j.put(DoneKey(fp, shards[0].Index), []byte(`{"index":0,"points":4}`))
	// Shard 1: sealed, but one record decodes to an empty row (written by
	// an older build whose schema drifted). The CRC layer passed it; spec
	// re-validation must not.
	j.put(shards[1].Keys[0], []byte(`{"bogus":true}`))
	for i := 1; i < len(shards[1].Keys); i++ {
		j.put(shards[1].Keys[i], marshal(fakeRow(shards[1].Points[i])))
	}
	j.put(DoneKey(fp, shards[1].Index), []byte(`{"index":1,"points":4}`))

	w := newFakeWorker(t, nil)
	c, err := New(Config{Workers: []string{w.URL()}, ShardSize: 4, Journal: j, HeartbeatInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.CSV) != string(expectedCSV(grid)) {
		t.Error("CSV diverges after invalid-row healing")
	}
	if out.Replayed != 7 || out.OrphanShards != 1 || out.Fresh != 9 {
		t.Errorf("out = %+v, want 7 replayed, 1 orphan, 9 fresh", out)
	}
	if got := c.m.InvalidRows.Value(); got != 1 {
		t.Errorf("cluster_journal_invalid_rows_total = %d, want 1", got)
	}
	if got := w.evaluated.Load(); got != 9 {
		t.Errorf("worker evaluated %d points, want exactly the 9 missing or invalid", got)
	}
	// The drifted record was superseded by a valid one.
	raw, ok := j.Lookup(shards[1].Keys[0])
	if _, valid := journaledRow(raw); !ok || !valid {
		t.Errorf("invalid record not healed: %s", raw)
	}
	// A rerun replays everything without touching a worker.
	before := w.requests.Load()
	out2, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Replayed != 16 || w.requests.Load() != before {
		t.Errorf("rerun = %+v with %d extra requests, want full replay", out2, w.requests.Load()-before)
	}
}

// TestAuditDecisionZeroAllocWhenDisabled: with auditing off, the
// per-shard audit decision on the merge hot path costs nothing.
func TestAuditDecisionZeroAllocWhenDisabled(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://w0"}, HeartbeatInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := &sweepState{}
	sr := &shardRun{shard: Shard{Index: 3}}
	res := ShardResult{Index: 3}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		v := c.audit(ctx, st, 0, sr, res)
		if !v.merge || v.audited {
			t.Fatal("audit-off verdict must be merge-unaudited")
		}
	})
	if allocs != 0 {
		t.Errorf("audit-off decision allocates %v times per shard, want 0", allocs)
	}
}

func BenchmarkAuditDecisionDisabled(b *testing.B) {
	c, err := New(Config{Workers: []string{"http://w0"}, HeartbeatInterval: -1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st := &sweepState{}
	sr := &shardRun{shard: Shard{Index: 3}}
	res := ShardResult{Index: 3}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := c.audit(ctx, st, 0, sr, res)
		if !v.merge {
			b.Fatal("unexpected verdict")
		}
	}
}
