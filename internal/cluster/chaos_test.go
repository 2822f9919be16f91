package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/chaosnet"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/runstate"
	"bcnphase/internal/serve"
	"bcnphase/internal/sweep"
)

// chaosWorker is one real bcnd serving stack (serve.Server behind an
// HTTP listener) plus the kill switches the soak pulls mid-sweep.
type chaosWorker struct {
	srv *serve.Server
	ts  *httptest.Server
	off sync.Once
}

func newChaosWorker(t *testing.T) *chaosWorker {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Workers:        2,
		QueueCap:       16,
		DefaultTimeout: 20 * time.Second,
		MaxTimeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &chaosWorker{srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(w.stop)
	return w
}

func (w *chaosWorker) stop() { w.off.Do(w.ts.Close) }

// kill is the SIGKILL-equivalent: in-flight connections are severed and
// the listener vanishes, with no drain and no goodbye.
func (w *chaosWorker) kill() {
	w.off.Do(func() {
		w.ts.CloseClientConnections()
		w.ts.Close()
	})
}

// drainThenStop is the SIGTERM path: stop admitting, let in-flight work
// finish, then leave.
func (w *chaosWorker) drainThenStop(t *testing.T) {
	w.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.WaitIdle(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	w.stop()
}

// TestClusterChaosSoak is the cluster fault-tolerance acceptance test:
// three real bcnd serving stacks behind one coordinator, a ≥500-point
// grid, one worker hard-killed and one SIGTERM-drained mid-sweep — and
// the merged map must still be byte-identical to a single-node run,
// with zero lost points and zero duplicated journal records. Run it
// under -race; the coordinator's dispatch, heartbeat and merge paths
// all interleave here.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos soak: skipped with -short")
	}
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 0.0009765625, GdHi: 0.5, Steps: 23}
	points := grid.Points()
	if len(points) < 500 {
		t.Fatalf("grid has %d points, soak wants >= 500", len(points))
	}

	// Single-node reference, computed with the same evaluator the
	// workers run. Byte-identical output is the bar, not "close".
	sm := core.NewSolveMetrics(nil)
	refRes, err := sweep.RunBatched(context.Background(), points, 64,
		func(ctx context.Context, pts []cluster.GainPoint, out []cluster.Row) error {
			return grid.EvalBatch(ctx, pts, out, cluster.EvalMetrics{Solve: sm})
		}, sweep.Options{Workers: 8})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	refRows := make([]cluster.Row, len(points))
	for i, r := range refRes {
		if r.Err != nil {
			t.Fatalf("reference point %d: %v", i, r.Err)
		}
		refRows[i] = r.Value
	}
	want := cluster.RenderCSV(refRows)

	workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t), newChaosWorker(t)}
	urls := []string{workers[0].ts.URL, workers[1].ts.URL, workers[2].ts.URL}

	dir := t.TempDir()
	journalPath := filepath.Join(dir, runstate.JournalFileName)
	j, err := runstate.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	// Kill schedule, driven by sweep progress: after the 3rd completed
	// shard worker 0 dies hard; after the 8th worker 1 drains away. Both
	// happen in the thick of dispatch, never at a tidy boundary.
	var dones atomic.Int64
	var killOnce, drainOnce sync.Once
	hook := func(_ string, _ cluster.Shard) {
		n := dones.Add(1)
		if n >= 3 {
			killOnce.Do(func() { go workers[0].kill() })
		}
		if n >= 8 {
			drainOnce.Do(func() { go workers[1].drainThenStop(t) })
		}
	}

	mapPath := filepath.Join(dir, "map.csv")
	c, err := cluster.New(cluster.Config{
		Workers:           urls,
		ShardSize:         16, // 34 shards for 529 points
		LeaseTimeout:      15 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   2,
		RetryBase:         5 * time.Millisecond,
		RetryCap:          50 * time.Millisecond,
		MaxAttempts:       2,
		BreakerThreshold:  2,
		BreakerCooldown:   100 * time.Millisecond,
		Journal:           j,
		MapPath:           mapPath,
		Seed:              1,
		OnShardDone:       hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	out, err := c.Run(ctx, grid)
	if err != nil {
		t.Fatalf("cluster sweep with worker loss: %v", err)
	}

	// Zero lost points: the merged map is byte-identical to the
	// single-node run, both in memory and on disk.
	if !bytes.Equal(out.CSV, want) {
		t.Errorf("merged map.csv diverges from single-node run (%d vs %d bytes)", len(out.CSV), len(want))
	}
	if disk, err := os.ReadFile(mapPath); err != nil || !bytes.Equal(disk, want) {
		t.Errorf("map.csv on disk diverges: %v", err)
	}
	if out.Points != len(points) || out.Fresh != len(points) || out.Replayed != 0 {
		t.Errorf("out = %+v, want all %d points fresh", out, len(points))
	}

	m := c.Metrics()
	if got := m.Points.Value(); got != uint64(len(points)) {
		t.Errorf("cluster_points_total = %d, want %d", got, len(points))
	}
	wantShards := (len(points) + 15) / 16
	if got := m.ShardsDone.Value(); got != uint64(wantShards) {
		t.Errorf("cluster_shards_done_total = %d, want %d", got, wantShards)
	}
	if got := m.Reassigned.Value(); got < 1 {
		t.Errorf("cluster_reassigned_shards_total = %d, want >= 1 after losing a worker mid-sweep", got)
	}
	// The killed worker is marked down by the heartbeat monitor.
	deadline := time.Now().Add(5 * time.Second)
	for m.WorkerUp.With(urls[0]).Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.WorkerUp.With(urls[0]).Value(); got != 0 {
		t.Errorf("cluster_worker_up{%s} = %v, want 0 for the killed worker", urls[0], got)
	}

	// Zero duplicated journal records: every key appears exactly once in
	// the on-disk journal, with one record per point and one done marker
	// per shard.
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	keyCount := map[string]int{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("unparseable journal line: %s", line)
		}
		keyCount[rec.Key]++
	}
	var pointRecords, doneRecords int
	for key, n := range keyCount {
		if n != 1 {
			t.Errorf("journal key %s recorded %d times", key, n)
		}
		if strings.HasPrefix(key, "shard-done:") {
			doneRecords++
		} else {
			pointRecords++
		}
	}
	if pointRecords != len(points) || doneRecords != wantShards {
		t.Errorf("journal holds %d point records and %d done markers, want %d and %d",
			pointRecords, doneRecords, len(points), wantShards)
	}

	// Crash-safe resume: a fresh coordinator over the same journal
	// replays the whole sweep without needing a single live worker.
	c.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := runstate.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, err := cluster.New(cluster.Config{
		Workers: urls, ShardSize: 16, Journal: j2, HeartbeatInterval: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	out2, err := c2.Run(context.Background(), grid)
	if err != nil {
		t.Fatalf("replay after restart: %v", err)
	}
	if out2.Fresh != 0 || out2.Replayed != len(points) || out2.OrphanShards != 0 {
		t.Errorf("replay = %+v, want everything from the journal", out2)
	}
	if !bytes.Equal(out2.CSV, want) {
		t.Error("replayed map diverges from single-node run")
	}
}

// TestClusterByzantineSoak is the result-integrity acceptance test: one
// of three real workers sits behind a Byzantine chaos proxy that
// rewrites ~5% of its result rows and re-signs them (so every digest
// verifies), while the honest workers' proxies inject latency and
// truncated bodies. With every shard audited, the merged map must stay
// byte-identical to a clean single-node run, the Byzantine worker must
// end quarantined, and the journal must hold no divergent rows. Run it
// under -race.
func TestClusterByzantineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("byzantine soak: skipped with -short")
	}
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 0.0009765625, GdHi: 0.5, Steps: 17}
	points := grid.Points()

	// Clean single-node reference with the same evaluator.
	sm := core.NewSolveMetrics(nil)
	refRes, err := sweep.RunBatched(context.Background(), points, 64,
		func(ctx context.Context, pts []cluster.GainPoint, out []cluster.Row) error {
			return grid.EvalBatch(ctx, pts, out, cluster.EvalMetrics{Solve: sm})
		}, sweep.Options{Workers: 8})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	refRows := make([]cluster.Row, len(points))
	for i, r := range refRes {
		if r.Err != nil {
			t.Fatalf("reference point %d: %v", i, r.Err)
		}
		refRows[i] = r.Value
	}
	want := cluster.RenderCSV(refRows)

	workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t), newChaosWorker(t)}
	newProxy := func(cfg chaosnet.Config) string {
		p, err := chaosnet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(p.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	// Worker 0 lies about ~5% of rows on every response; workers 1 and 2
	// are honest but their network is slow and occasionally truncates.
	urls := []string{
		newProxy(chaosnet.Config{Target: workers[0].ts.URL, Seed: 41, ByzantineProb: 1, RewriteFraction: 0.05}),
		newProxy(chaosnet.Config{Target: workers[1].ts.URL, Seed: 42, Latency: time.Millisecond, Jitter: 2 * time.Millisecond, TruncateProb: 0.05}),
		newProxy(chaosnet.Config{Target: workers[2].ts.URL, Seed: 43, Latency: time.Millisecond, TruncateProb: 0.05}),
	}

	dir := t.TempDir()
	journalPath := filepath.Join(dir, runstate.JournalFileName)
	j, err := runstate.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	c, err := cluster.New(cluster.Config{
		Workers:           urls,
		ShardSize:         16,
		LeaseTimeout:      15 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   3,
		RetryBase:         5 * time.Millisecond,
		RetryCap:          50 * time.Millisecond,
		MaxAttempts:       3,
		BreakerThreshold:  3,
		BreakerCooldown:   100 * time.Millisecond,
		AuditFraction:     1,
		Journal:           j,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	out, err := c.Run(ctx, grid)
	if err != nil {
		t.Fatalf("cluster sweep under Byzantine chaos: %v", err)
	}

	if !bytes.Equal(out.CSV, want) {
		t.Errorf("merged map diverges from clean single-node run (%d vs %d bytes)", len(out.CSV), len(want))
	}
	if out.AuditedShards < 1 {
		t.Errorf("AuditedShards = %d, want >= 1", out.AuditedShards)
	}

	m := c.Metrics()
	if got := m.AuditQuarantined.Value(); got < 1 {
		t.Errorf("cluster_audit_quarantined_workers_total = %d, want >= 1", got)
	}
	if got := m.AuditSampled.Value(); got < 1 {
		t.Errorf("cluster_audit_sampled_shards_total = %d, want >= 1", got)
	}
	var byzSnap *cluster.WorkerBreakerStatus
	for _, s := range c.BreakerSnapshot() {
		if s.Worker == urls[0] {
			s := s
			byzSnap = &s
		}
	}
	if byzSnap == nil || byzSnap.State != "quarantined" {
		t.Errorf("Byzantine worker breaker = %+v, want quarantined", byzSnap)
	}

	// Zero divergent rows survive in the journal: a replay-only pass
	// (no dispatch, no audit, just the journal) reproduces the clean map.
	out2, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if out2.Fresh != 0 || out2.Replayed != len(points) {
		t.Errorf("replay = %+v, want all %d points from the journal", out2, len(points))
	}
	if !bytes.Equal(out2.CSV, want) {
		t.Error("journal replay diverges from the clean reference: divergent rows reached the journal")
	}
}
