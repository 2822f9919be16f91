package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/chaosnet"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/runstate"
	"bcnphase/internal/sweep"
)

// handlerHolder lets an httptest server exist before the HANode whose
// Handler it will serve (the node needs the server's URL as Self).
type handlerHolder struct{ v atomic.Value }

func (h *handlerHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hd, ok := h.v.Load().(http.Handler); ok {
		hd.ServeHTTP(w, r)
		return
	}
	http.Error(w, "replica booting", http.StatusServiceUnavailable)
}

// haReplica is one coordinator replica under test: the node, its HTTP
// front, its private journal, and its private chaos proxies to the
// shared worker fleet (so one replica can be partitioned from the
// workers without touching the others).
type haReplica struct {
	idx     int
	node    *cluster.HANode
	ts      *httptest.Server
	journal string
	mapPath string
	proxies []*chaosnet.Proxy
	off     sync.Once
}

// kill is the SIGKILL-equivalent: sever every client connection, drop
// the listener, and tear the node down without any drain.
func (r *haReplica) kill() {
	r.off.Do(func() {
		r.ts.CloseClientConnections()
		r.ts.Close()
		r.node.Close()
	})
}

func (r *haReplica) partition(on bool) {
	for _, p := range r.proxies {
		p.SetPartitioned(on)
	}
}

// mergeEvent is one shard merge as observed through OnShardDone: which
// replica merged, under which term.
type mergeEvent struct {
	replica int
	term    uint64
	shard   int
}

// TestHAFailoverSoak is the coordinator-availability acceptance test
// (DESIGN.md §5i): three coordinator replicas over three real bcnd
// worker stacks, the elected leader SIGKILL-killed mid-sweep, its
// successor partitioned from the worker fleet mid-term — and the
// surviving leader must still complete the sweep with a map.csv
// byte-identical to a clean single-coordinator run, zero lost or
// duplicated journal records, and a merge log proving no deposed
// leader ever merged after its successor (fencing terms
// non-decreasing, one leader per term). Run it under -race.
func TestHAFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("HA failover soak: skipped with -short")
	}
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 0.0009765625, GdHi: 0.5, Steps: 17}
	points := grid.Points()
	fp, err := grid.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Clean single-coordinator reference, same evaluator the workers run.
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

	// Three real worker stacks — the witness electorate.
	workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t), newChaosWorker(t)}

	// The fault schedule, driven by merge progress so both failures land
	// in the thick of a sweep, never at a tidy boundary: after the first
	// leader's 3rd merged shard it is killed; after its successor's 3rd
	// merged shard the successor is partitioned from every worker.
	var (
		logMu             sync.Mutex
		merges            []mergeEvent
		killed            = -1
		severed           = -1
		replicas          [3]*haReplica
		killOnce, sevOnce sync.Once
	)
	perLeader := map[int]int{}
	onShardDone := func(idx int) func(term uint64, worker string, sh cluster.Shard) {
		return func(term uint64, _ string, sh cluster.Shard) {
			logMu.Lock()
			merges = append(merges, mergeEvent{replica: idx, term: term, shard: sh.Index})
			perLeader[idx]++
			n := perLeader[idx]
			victim := replicas[idx]
			logMu.Unlock()
			if n < 3 {
				return
			}
			logMu.Lock()
			isFirst := killed == -1
			isSecond := !isFirst && severed == -1 && idx != killed
			if isFirst {
				killed = idx
			}
			if isSecond {
				severed = idx
			}
			logMu.Unlock()
			if isFirst {
				killOnce.Do(func() { go victim.kill() })
			}
			if isSecond {
				sevOnce.Do(func() { go victim.partition(true) })
			}
		}
	}

	const leaseTTL = 300 * time.Millisecond
	dir := t.TempDir()
	// Listeners and per-replica worker proxies first: every replica
	// needs the full peer URL list before any node starts campaigning.
	var holders [3]*handlerHolder
	var workerViews [3][]string
	for i := range replicas {
		holders[i] = &handlerHolder{}
		ts := httptest.NewServer(holders[i])
		t.Cleanup(ts.Close)
		proxies := make([]*chaosnet.Proxy, len(workers))
		proxyURLs := make([]string, len(workers))
		for w, wk := range workers {
			// A few ms of injected latency per dispatch keeps the sweep
			// long enough that the asynchronous kill and partition always
			// land mid-sweep, never after a too-fast completion.
			p, err := chaosnet.New(chaosnet.Config{
				Target: wk.ts.URL, Seed: int64(100*i + w),
				Latency: 4 * time.Millisecond, Jitter: 4 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts := httptest.NewServer(p.Handler())
			t.Cleanup(pts.Close)
			proxies[w], proxyURLs[w] = p, pts.URL
		}
		workerViews[i] = proxyURLs
		replicas[i] = &haReplica{
			idx:     i,
			ts:      ts,
			journal: filepath.Join(dir, fmt.Sprintf("replica%d-%s", i, runstate.JournalFileName)),
			mapPath: filepath.Join(dir, fmt.Sprintf("replica%d-map.csv", i)),
			proxies: proxies,
		}
	}
	for i, r := range replicas {
		j, err := runstate.OpenJournal(r.journal)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		var peers []string
		for k, other := range replicas {
			if k != i {
				peers = append(peers, other.ts.URL)
			}
		}
		node, err := cluster.NewHANode(cluster.HAConfig{
			Self:             r.ts.URL,
			Peers:            peers,
			Workers:          workerViews[i],
			LeaseTTL:         leaseTTL,
			ElectionInterval: leaseTTL / 2,
			RenewInterval:    leaseTTL / 3,
			Journal:          j,
			Seed:             int64(i + 1),
			OnShardDone:      onShardDone(i),
			Coordinator: cluster.Config{
				ShardSize:         8, // 37 shards for 289 points
				LeaseTimeout:      10 * time.Second,
				HeartbeatInterval: 25 * time.Millisecond,
				HeartbeatMisses:   2,
				RetryBase:         5 * time.Millisecond,
				RetryCap:          50 * time.Millisecond,
				MaxAttempts:       2,
				BreakerThreshold:  2,
				BreakerCooldown:   100 * time.Millisecond,
				MapPath:           r.mapPath,
				Seed:              1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.node = node
		t.Cleanup(node.Close)
		holders[i].v.Store(node.Handler())
	}

	body, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}

	// The failing-over client: rotate across every replica until one —
	// whichever currently leads — answers 200 with the merged map.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var got []byte
	winner := -1
	client := &http.Client{}
	for got == nil {
		if ctx.Err() != nil {
			logMu.Lock()
			t.Fatalf("no replica completed the sweep in time; merges so far: %v", merges)
		}
		for i, r := range replicas {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.ts.URL+"/v1/sweeps", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				continue // dead or killed replica: fail over
			}
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != http.StatusOK {
				continue // not the leader, or its leadership died mid-sweep
			}
			got, winner = data, i
			break
		}
		if got == nil {
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
		}
	}

	// Byte-identical to the clean single-coordinator run, in memory and
	// on the winner's disk.
	if !bytes.Equal(got, want) {
		t.Errorf("failed-over sweep returned %d bytes, reference is %d; maps diverge", len(got), len(want))
	}
	if disk, err := os.ReadFile(replicas[winner].mapPath); err != nil || !bytes.Equal(disk, want) {
		t.Errorf("winner's map.csv on disk diverges: %v", err)
	}

	logMu.Lock()
	events := append([]mergeEvent(nil), merges...)
	killedIdx, severedIdx := killed, severed
	logMu.Unlock()

	// Both failures actually happened mid-sweep.
	if killedIdx == -1 {
		t.Fatal("no leader was ever killed; the soak never exercised failover")
	}
	if severedIdx == -1 {
		t.Error("no successor was partitioned; the split-brain leg never ran")
	}
	if winner == killedIdx {
		t.Errorf("the killed replica %d answered the final sweep", winner)
	}

	// Fencing: merge terms never decrease — a deposed leader never
	// merged after its successor — and no term was shared by two
	// replicas.
	termOwner := map[uint64]int{}
	var last uint64
	for i, ev := range events {
		if ev.term < last {
			t.Fatalf("merge %d: term %d after term %d — a deposed leader merged behind its successor (%v)", i, ev.term, last, events)
		}
		last = ev.term
		if owner, ok := termOwner[ev.term]; ok && owner != ev.replica {
			t.Fatalf("term %d merged by replicas %d and %d — two leaders in one term", ev.term, owner, ev.replica)
		}
		termOwner[ev.term] = ev.replica
	}
	if len(termOwner) < 2 {
		t.Errorf("all merges under %d term(s); failover never changed leaders mid-sweep", len(termOwner))
	}

	// Zero lost, zero duplicated: the winner's on-disk journal holds
	// every key at most once, includes the sweep bookkeeping, and a
	// fresh coordinator over that journal replays the entire grid
	// without dispatching a single shard.
	raw, err := os.ReadFile(replicas[winner].journal)
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
	for key, n := range keyCount {
		if n != 1 {
			t.Errorf("winner's journal records key %s %d times", key, n)
		}
	}
	if keyCount[cluster.SweepGridKey(fp)] != 1 || keyCount[cluster.SweepDoneKey(fp)] != 1 {
		t.Errorf("winner's journal lacks sweep bookkeeping: grid=%d done=%d",
			keyCount[cluster.SweepGridKey(fp)], keyCount[cluster.SweepDoneKey(fp)])
	}

	// Replay over a copy of the winner's journal (the original is still
	// owned by its node): a fresh coordinator must reproduce the whole
	// map from the journal alone.
	replayDir := t.TempDir()
	replayPath := filepath.Join(replayDir, runstate.JournalFileName)
	if err := os.WriteFile(replayPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := runstate.OpenJournal(replayPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, err := cluster.New(cluster.Config{
		Workers: []string{workers[2].ts.URL}, ShardSize: 8, Journal: j2, HeartbeatInterval: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	out2, err := c2.Run(context.Background(), grid)
	if err != nil {
		t.Fatalf("replay over the winner's journal: %v", err)
	}
	if out2.Fresh != 0 || out2.Replayed != len(points) {
		t.Errorf("replay = fresh %d replayed %d, want 0 and %d: the failover lost or refetched points",
			out2.Fresh, out2.Replayed, len(points))
	}
	if !bytes.Equal(out2.CSV, want) {
		t.Error("replay over the winner's journal diverges from the reference map")
	}

	// Leadership telemetry: the winner reports itself leader at the
	// final term.
	st := replicas[winner].node.Status()
	if st.Role != cluster.RoleLeader {
		t.Errorf("winner's role = %s, want leader", st.Role)
	}
	if st.Term != last {
		t.Errorf("winner's term = %d, last merge term = %d", st.Term, last)
	}
}
