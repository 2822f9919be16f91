package chaosnet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/cluster"
)

// chaosRow is the deterministic fake evaluation the upstream worker
// answers with; it carries a stability verdict so the Byzantine rewrite
// has something meaningful to lie about.
func chaosRow(pt cluster.GainPoint) cluster.Row {
	return cluster.Row{CSV: fmt.Sprintf("%.9g,%.9g,stable,1,0", pt.Gi, pt.Gd)}
}

// upstream is a minimal honest bcnd stand-in speaking the cluster wire
// JSON: signed shard artifacts on /v1/jobs, liveness on /statusz.
func upstream(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var requests atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		var env struct {
			Kind  string             `json:"kind"`
			Shard *cluster.ShardSpec `json:"shard"`
		}
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil || env.Shard == nil {
			http.Error(w, `{"error":"not a shard job"}`, http.StatusBadRequest)
			return
		}
		res := cluster.ShardResult{Index: env.Shard.Index, Rows: make([]cluster.Row, len(env.Shard.Points))}
		for i, pt := range env.Shard.Points {
			res.Rows[i] = chaosRow(pt)
		}
		cluster.SignShardResult(&res)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"key": "k", "kind": "shard", "shard": &res})
	})
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		fmt.Fprint(w, `{"draining":false,"workers":2}`)
	})
	mux.HandleFunc("GET /blob", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		_, _ = w.Write(bytes.Repeat([]byte("payload-"), 512))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &requests
}

func startProxy(t *testing.T, cfg Config) (*Proxy, string) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts.URL
}

func testShardJob(t *testing.T, proxyURL string) (cluster.ShardResult, []cluster.Row) {
	t.Helper()
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 4}
	points := grid.Points()[:8]
	honest := make([]cluster.Row, len(points))
	for i, pt := range points {
		honest[i] = chaosRow(pt)
	}
	body, err := json.Marshal(map[string]any{
		"kind": "shard", "timeout_ms": 5000,
		"shard": &cluster.ShardSpec{Grid: grid, Index: 0, Points: points},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(proxyURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("shard job through proxy: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard job: status %d err %v: %s", resp.StatusCode, err, raw)
	}
	var art struct {
		Shard *cluster.ShardResult `json:"shard"`
	}
	if err := json.Unmarshal(raw, &art); err != nil || art.Shard == nil {
		t.Fatalf("artifact decode: %v: %s", err, raw)
	}
	return *art.Shard, honest
}

func TestNewValidatesConfig(t *testing.T) {
	bad := []Config{
		{},
		{Target: "not a url"},
		{Target: "/relative"},
		{Target: "http://x", ResetProb: 1.5},
		{Target: "http://x", ByzantineProb: -0.1},
		{Target: "http://x", FlipProb: math.NaN()},
		{Target: "http://x", Latency: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	if _, err := New(Config{Target: "http://x"}); err != nil {
		t.Errorf("transparent config rejected: %v", err)
	}
}

func TestTransparentPassThrough(t *testing.T) {
	ts, requests := upstream(t)
	p, purl := startProxy(t, Config{Target: ts.URL, Seed: 1})
	resp, err := http.Get(purl + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"workers":2`) {
		t.Errorf("statusz through proxy = %s", raw)
	}
	res, honest := testShardJob(t, purl)
	if err := cluster.VerifyShardResult(res); err != nil {
		t.Errorf("pass-through result fails verification: %v", err)
	}
	for i := range honest {
		if res.Rows[i] != honest[i] {
			t.Errorf("row %d altered by transparent proxy", i)
		}
	}
	st := p.Stats()
	if st.Forwarded != 2 || st.Requests != 2 || requests.Load() != 2 {
		t.Errorf("stats = %+v, upstream saw %d", st, requests.Load())
	}
}

func TestLatencyDelaysRequests(t *testing.T) {
	ts, _ := upstream(t)
	_, purl := startProxy(t, Config{Target: ts.URL, Seed: 1, Latency: 30 * time.Millisecond})
	began := time.Now()
	resp, err := http.Get(purl + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(began); elapsed < 30*time.Millisecond {
		t.Errorf("request took %v, want >= 30ms of injected latency", elapsed)
	}
}

func TestResetSeversBeforeUpstream(t *testing.T) {
	ts, requests := upstream(t)
	p, purl := startProxy(t, Config{Target: ts.URL, Seed: 1, ResetProb: 1})
	if resp, err := http.Get(purl + "/statusz"); err == nil {
		resp.Body.Close()
		t.Fatal("reset-everything proxy answered")
	}
	if requests.Load() != 0 {
		t.Errorf("upstream saw %d requests through a resetting proxy", requests.Load())
	}
	if st := p.Stats(); st.Reset != 1 {
		t.Errorf("stats = %+v, want 1 reset", st)
	}
}

func TestPartitionToggle(t *testing.T) {
	ts, _ := upstream(t)
	p, purl := startProxy(t, Config{Target: ts.URL, Seed: 1})
	p.SetPartitioned(true)
	if !p.Partitioned() {
		t.Fatal("partition toggle lost")
	}
	if resp, err := http.Get(purl + "/statusz"); err == nil {
		resp.Body.Close()
		t.Fatal("partitioned proxy answered")
	}
	p.SetPartitioned(false)
	resp, err := http.Get(purl + "/statusz")
	if err != nil {
		t.Fatalf("healed partition still failing: %v", err)
	}
	resp.Body.Close()
	if st := p.Stats(); st.Partitioned != 1 {
		t.Errorf("stats = %+v, want 1 partitioned drop", st)
	}
}

func TestTruncateBreaksBody(t *testing.T) {
	ts, _ := upstream(t)
	p, purl := startProxy(t, Config{Target: ts.URL, Seed: 1, TruncateProb: 1})
	resp, err := http.Get(purl + "/blob")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("truncated body read cleanly")
	}
	if st := p.Stats(); st.Truncated != 1 {
		t.Errorf("stats = %+v, want 1 truncation", st)
	}
}

func TestFlipCorruptsOneBit(t *testing.T) {
	ts, _ := upstream(t)
	clean, cleanURL := startProxy(t, Config{Target: ts.URL, Seed: 1})
	_ = clean
	resp, err := http.Get(cleanURL + "/blob")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	p, purl := startProxy(t, Config{Target: ts.URL, Seed: 1, FlipProb: 1})
	resp, err = http.Get(purl + "/blob")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(got) != len(want) {
		t.Fatalf("flipped body length %d, want %d", len(got), len(want))
	}
	diff := 0
	for i := range got {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ after one bit flip, want exactly 1", diff)
	}
	if st := p.Stats(); st.Flipped != 1 {
		t.Errorf("stats = %+v, want 1 flip", st)
	}
}

// TestByzantineRewriteStillVerifies is the property that makes the
// Byzantine mode interesting: the rewritten result passes every digest
// check — only comparing rows against an independent execution can
// expose it.
func TestByzantineRewriteStillVerifies(t *testing.T) {
	ts, _ := upstream(t)
	p, purl := startProxy(t, Config{Target: ts.URL, Seed: 1, ByzantineProb: 1, RewriteFraction: 0.25})
	res, honest := testShardJob(t, purl)
	if err := cluster.VerifyShardResult(res); err != nil {
		t.Fatalf("Byzantine result fails digest verification (it must not): %v", err)
	}
	changed := 0
	for i := range honest {
		if res.Rows[i] != honest[i] {
			changed++
		}
	}
	if changed < 1 {
		t.Error("Byzantine draw rewrote zero rows")
	}
	st := p.Stats()
	if st.Rewritten != 1 || st.RowsRewritten != uint64(changed) {
		t.Errorf("stats = %+v, want 1 rewrite of %d rows", st, changed)
	}
	// The lie is plausible: still one row per point, none empty.
	if len(res.Rows) != len(honest) {
		t.Errorf("row count changed: %d vs %d", len(res.Rows), len(honest))
	}
	for i, r := range res.Rows {
		if r.CSV == "" {
			t.Errorf("row %d rewritten to empty", i)
		}
	}
}

// TestSeededDecisionsAreReproducible: two identically-seeded proxies
// over the same serialized request sequence inject the same faults at
// the same positions.
func TestSeededDecisionsAreReproducible(t *testing.T) {
	ts, _ := upstream(t)
	pattern := func(seed int64) string {
		_, purl := startProxy(t, Config{Target: ts.URL, Seed: seed, ResetProb: 0.5})
		var b strings.Builder
		for i := 0; i < 24; i++ {
			resp, err := http.Get(purl + "/statusz")
			if err != nil {
				b.WriteByte('x')
				continue
			}
			resp.Body.Close()
			b.WriteByte('.')
		}
		return b.String()
	}
	a, b := pattern(7), pattern(7)
	if a != b {
		t.Errorf("same seed, different fault schedule:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Errorf("p=0.5 schedule degenerate: %s", a)
	}
}

// TestClusterSurvivesEveryChaosMode drives a real coordinator through
// the proxy in each fault mode and requires the merged map to stay
// byte-identical to the clean reference every time.
func TestClusterSurvivesEveryChaosMode(t *testing.T) {
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 5}
	points := grid.Points()
	refRows := make([]cluster.Row, len(points))
	for i, pt := range points {
		refRows[i] = chaosRow(pt)
	}
	want := string(cluster.RenderCSV(refRows))

	modes := []struct {
		name  string
		chaos [2]Config // applied to the two honest upstreams
		audit float64
	}{
		{name: "latency", chaos: [2]Config{{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond}, {Latency: time.Millisecond}}},
		{name: "stall", chaos: [2]Config{{StallProb: 0.3, Stall: 5 * time.Millisecond}, {}}},
		{name: "reset", chaos: [2]Config{{ResetProb: 0.3}, {}}},
		{name: "truncate", chaos: [2]Config{{TruncateProb: 0.3}, {}}},
		{name: "flip", chaos: [2]Config{{FlipProb: 0.2}, {}}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			ts0, _ := upstream(t)
			ts1, _ := upstream(t)
			cfg0, cfg1 := mode.chaos[0], mode.chaos[1]
			cfg0.Target, cfg0.Seed = ts0.URL, 11
			cfg1.Target, cfg1.Seed = ts1.URL, 12
			_, u0 := startProxy(t, cfg0)
			_, u1 := startProxy(t, cfg1)
			c, err := cluster.New(cluster.Config{
				Workers: []string{u0, u1}, ShardSize: 2,
				HeartbeatInterval: -1, Seed: 1,
				RetryBase: time.Millisecond, RetryCap: 10 * time.Millisecond,
				MaxAttempts: 3, BreakerThreshold: -1, LeaseTimeout: 10 * time.Second,
				AuditFraction: mode.audit,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := c.Run(ctx, grid)
			if err != nil {
				t.Fatalf("%s sweep: %v", mode.name, err)
			}
			if string(out.CSV) != want {
				t.Errorf("%s: merged map diverges from clean reference", mode.name)
			}
		})
	}

	t.Run("partition-heal", func(t *testing.T) {
		ts0, _ := upstream(t)
		ts1, _ := upstream(t)
		p0, u0 := startProxy(t, Config{Target: ts0.URL, Seed: 21})
		_, u1 := startProxy(t, Config{Target: ts1.URL, Seed: 22})
		p0.SetPartitioned(true)
		var healed atomic.Bool
		c, err := cluster.New(cluster.Config{
			Workers: []string{u0, u1}, ShardSize: 2,
			HeartbeatInterval: -1, Seed: 1,
			RetryBase: time.Millisecond, RetryCap: 10 * time.Millisecond,
			MaxAttempts: 2, BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond,
			LeaseTimeout: 10 * time.Second,
			// Heal only once the partition has dropped a request: a shard
			// can finish on the healthy worker before any dispatch reaches
			// the partitioned one, and healing then would leave the
			// partition untested.
			OnShardDone: func(string, cluster.Shard) {
				if p0.Stats().Partitioned >= 1 && healed.CompareAndSwap(false, true) {
					p0.SetPartitioned(false)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out, err := c.Run(ctx, grid)
		if err != nil {
			t.Fatalf("partition sweep: %v", err)
		}
		if string(out.CSV) != want {
			t.Error("partition-heal: merged map diverges from clean reference")
		}
		if p0.Stats().Partitioned < 1 {
			t.Error("partition never dropped a request")
		}
	})

	t.Run("byzantine", func(t *testing.T) {
		ts0, _ := upstream(t)
		ts1, _ := upstream(t)
		ts2, _ := upstream(t)
		pb, ub := startProxy(t, Config{Target: ts0.URL, Seed: 31, ByzantineProb: 1, RewriteFraction: 0.05})
		_, u1 := startProxy(t, Config{Target: ts1.URL, Seed: 32})
		_, u2 := startProxy(t, Config{Target: ts2.URL, Seed: 33})
		c, err := cluster.New(cluster.Config{
			Workers: []string{ub, u1, u2}, ShardSize: 2,
			HeartbeatInterval: -1, Seed: 1, AuditFraction: 1,
			RetryBase: time.Millisecond, RetryCap: 10 * time.Millisecond,
			MaxAttempts: 2, LeaseTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out, err := c.Run(ctx, grid)
		if err != nil {
			t.Fatalf("byzantine sweep: %v", err)
		}
		if string(out.CSV) != want {
			t.Error("byzantine: merged map carries rewritten rows")
		}
		if pb.Stats().Rewritten >= 1 {
			if got := c.Metrics().AuditQuarantined.Value(); got != 1 {
				t.Errorf("cluster_audit_quarantined_workers_total = %d, want 1", got)
			}
		}
	})
}

// FuzzRewriteArtifact: arbitrary bytes through the Byzantine rewriter
// must never panic, and whatever it claims to have rewritten must still
// pass digest verification.
func FuzzRewriteArtifact(f *testing.F) {
	res := cluster.ShardResult{Index: 2, Rows: []cluster.Row{{CSV: "1,2,stable,1,0"}, {CSV: "3,4,unstable,0,1"}}}
	cluster.SignShardResult(&res)
	seed, _ := json.Marshal(map[string]any{"key": "k", "kind": "shard", "shard": &res})
	f.Add(seed)
	f.Add([]byte(`{"shard":{"index":1,"rows":[{"csv":"a"}]}}`))
	f.Add([]byte(`{"shard":null}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := New(Config{Target: "http://upstream", Seed: 9, ByzantineProb: 1, RewriteFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		out, n := p.rewriteArtifact(data)
		if n == 0 {
			if !bytes.Equal(out, data) {
				t.Fatal("rewriteArtifact altered a body it claims it did not touch")
			}
			return
		}
		var art struct {
			Shard *cluster.ShardResult `json:"shard"`
		}
		if err := json.Unmarshal(out, &art); err != nil || art.Shard == nil {
			t.Fatalf("rewritten artifact does not decode: %v", err)
		}
		if err := cluster.VerifyShardResult(*art.Shard); err != nil {
			t.Fatalf("rewritten artifact fails digest verification: %v", err)
		}
	})
}
