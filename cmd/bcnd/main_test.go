package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/serve"
)

// startServer runs the daemon on an ephemeral port and returns its base
// URL plus a stop function that triggers the graceful drain and returns
// run's error.
func startServer(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	startedHook = func(addr string) { addrCh <- addr }
	t.Cleanup(func() { startedHook = nil })

	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, &out) }()

	select {
	case addr := <-addrCh:
		stop := func() error {
			cancel()
			select {
			case err := <-errCh:
				if !strings.Contains(out.String(), "drained cleanly") && err == nil {
					t.Errorf("clean exit without drain summary:\n%s", out.String())
				}
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("server did not exit after drain")
				return nil
			}
		}
		t.Cleanup(func() { cancel(); <-time.After(0) })
		return "http://" + addr, stop
	case err := <-errCh:
		cancel()
		t.Fatalf("server died before binding: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never bound")
		return "", nil
	}
}

func solveBody(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(serve.Spec{Kind: serve.KindSolve, Solve: &serve.SolveSpec{Params: core.PaperExample()}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeSubmitAndGracefulDrain(t *testing.T) {
	base, stop := startServer(t)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(solveBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// The signal-driven drain must return nil — the process exits 0.
	if err := stop(); err != nil {
		t.Fatalf("graceful drain returned error: %v", err)
	}
}

func TestJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := solveBody(t)

	base, stop := startServer(t, "-journal", dir)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, first)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A restarted daemon answers the resubmit from the journal without
	// re-executing, byte-identically.
	base2, stop2 := startServer(t, "-journal", dir)
	resp2, err := http.Post(base2+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("restart resubmit: status %d cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("artifact not byte-identical across restart")
	}
	if err := stop2(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestOpenJournalBanners pins the replay banner of each journal-backed
// mode and the preflight error for a journal path that is a file.
func TestOpenJournalBanners(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	for i, c := range []struct{ name, unit string }{
		{"journal", "artifacts"},
		{"coordinator journal", "records"},
		{"replica journal", "records"},
	} {
		var out bytes.Buffer
		j, err := openJournal(&out, dir, c.name, c.unit)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("k", []byte(`1`)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		// The first open finds an empty journal; each later one replays
		// the record the one before wrote.
		if want := fmt.Sprintf("bcnd: %s %s replayed %d %s\n", c.name, path, min(i, 1), c.unit); out.String() != want {
			t.Errorf("banner %q, want %q", out.String(), want)
		}
	}
	if _, err := openJournal(new(bytes.Buffer), path, "journal", "artifacts"); err == nil || !strings.HasPrefix(err.Error(), "preflight: ") {
		t.Errorf("journal dir that is a file: err = %v, want a preflight error", err)
	}
}

func TestSelftest(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-selftest"}, &out); err != nil {
		t.Fatalf("selftest failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"selftest ok: solve", "selftest ok: sweep", "selftest ok: netsim", "malformed-rejection"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("selftest output missing %q:\n%s", want, out.String())
		}
	}
}

func TestClientPostAndGet(t *testing.T) {
	base, stop := startServer(t)
	defer stop()

	specFile := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(specFile, solveBody(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var posted bytes.Buffer
	if err := run(context.Background(), []string{"-url", base, "-post", specFile}, &posted); err != nil {
		t.Fatalf("-post: %v", err)
	}
	var art serve.Artifact
	if err := json.Unmarshal(posted.Bytes(), &art); err != nil {
		t.Fatalf("-post output not an artifact: %v", err)
	}
	var got bytes.Buffer
	if err := run(context.Background(), []string{"-url", base, "-get", art.Key}, &got); err != nil {
		t.Fatalf("-get: %v", err)
	}
	if !bytes.Equal(posted.Bytes(), got.Bytes()) {
		t.Error("-get bytes differ from -post bytes")
	}
}

func TestFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag": {"-definitely-not-a-flag"},
		"bad policy":   {"-invariants", "loose"},
		"post and get": {"-post", "a", "-get", "b"},
		"missing spec": {"-post", filepath.Join(t.TempDir(), "absent.json")},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeMetricsAndTelemetryDump exercises the live /metrics endpoint
// and the -telemetry drain dump in one server lifetime.
func TestServeMetricsAndTelemetryDump(t *testing.T) {
	dir := t.TempDir()
	base, stop := startServer(t, "-telemetry", dir)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(solveBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if rid := resp.Header.Get("X-Request-ID"); rid == "" {
		t.Error("job response missing X-Request-ID")
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mresp))
	for _, want := range []string{
		"serve_accepted_total 1",
		"# TYPE serve_queue_depth gauge",
		"serve_uptime_seconds",
		`serve_job_seconds_count{kind="solve"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
	if err != nil {
		t.Fatalf("telemetry.json not written at drain: %v", err)
	}
	var sum struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(raw, &sum); err != nil || sum.Tool != "bcnd" {
		t.Fatalf("telemetry.json tool = %q, err %v", sum.Tool, err)
	}
	if !strings.Contains(string(raw), "serve_completed_total") {
		t.Error("dump lacks serve counters")
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.jsonl")); err != nil {
		t.Errorf("trace.jsonl not written: %v", err)
	}
}

// TestQoSFlagsEndToEnd boots the daemon with the closed-loop QoS layer
// on and drives it with the client-mode QoS flags: the artifact comes
// back, the response carries the advertised-rate and brownout headers,
// and /metrics exports the qos_* series.
func TestQoSFlagsEndToEnd(t *testing.T) {
	base, stop := startServer(t,
		"-qos", "-tenant-weights", "acme=3,batch=0.5")
	specFile := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(specFile, solveBody(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var posted bytes.Buffer
	err := run(context.Background(), []string{
		"-url", base, "-post", specFile,
		"-tenant", "acme", "-qos-class", "interactive", "-deadline", "30s",
	}, &posted)
	if err != nil {
		t.Fatalf("-post with QoS flags: %v", err)
	}
	var art serve.Artifact
	if err := json.Unmarshal(posted.Bytes(), &art); err != nil {
		t.Fatalf("-post output not an artifact: %v", err)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(solveBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.Header.Get("Bcn-Advertised-Rate") == "" {
		t.Error("QoS server did not stamp Bcn-Advertised-Rate")
	}
	if got := resp.Header.Get("Bcn-Brownout-Level"); got != "full" {
		t.Errorf("Bcn-Brownout-Level = %q, want full", got)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mresp))
	for _, want := range []string{"qos_admitted_total", "qos_advertised_rate"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestTenantWeightsFlagParsing pins the -tenant-weights grammar.
func TestTenantWeightsFlagParsing(t *testing.T) {
	got, err := parseTenantWeights("acme=3, batch=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got["acme"] != 3 || got["batch"] != 0.5 {
		t.Errorf("parsed %v", got)
	}
	if w, err := parseTenantWeights(""); err != nil || w != nil {
		t.Errorf("empty flag: %v %v", w, err)
	}
	for _, bad := range []string{"acme", "acme=", "acme=0", "acme=-1", "acme=heavy", "acme=Inf", "acme=NaN", "acme=-Inf"} {
		if _, err := parseTenantWeights(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestQoSMaxHeapFlag: with a 1-byte -qos-max-heap every live heap is
// past 1.5x the cap, so the first control tick moves the brownout
// ladder to drain and a new submission is shed with 503. Without the
// flag the same server stays at full (TestQoSFlagsEndToEnd).
func TestQoSMaxHeapFlag(t *testing.T) {
	base, stop := startServer(t, "-qos", "-qos-max-heap", "1")
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(solveBody(t)))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Bcn-Brownout-Level") == "drain" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never shed in drain brownout: last status %d, level %q",
				resp.StatusCode, resp.Header.Get("Bcn-Brownout-Level"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestAuditFractionFlag runs one 16-point sweep in 4 shards through a
// coordinator over two workers, once per -audit-fraction value, and
// reads the audit counters from the coordinator's /metrics: the default
// 0 audits no shard, 1 re-executes every shard on the other worker and
// finds it matching.
func TestAuditFractionFlag(t *testing.T) {
	var workers []string
	for i := 0; i < 2; i++ {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		workers = append(workers, ts.URL)
	}
	grid, err := json.Marshal(cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 1.0 / 512, GdHi: 0.1, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flags   []string
		audited int
	}{
		{nil, 0},
		{[]string{"-audit-fraction", "1"}, 4},
	} {
		args := append([]string{"-coordinator", "-workers", strings.Join(workers, ","), "-shard-size", "4"}, c.flags...)
		base, stop := startServer(t, args...)
		resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(grid))
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: sweep status %d: %s", c.flags, resp.StatusCode, body)
		}
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics := string(readAll(t, mresp))
		for _, name := range []string{"cluster_audit_sampled_shards_total", "cluster_audit_matched_shards_total"} {
			if got := metricValue(t, metrics, name); got != c.audited {
				t.Errorf("%v: %s = %d, want %d", c.flags, name, got, c.audited)
			}
		}
		if err := stop(); err != nil {
			t.Fatalf("%v: drain: %v", c.flags, err)
		}
	}
}

// metricValue reads one unlabelled integer series from a /metrics body.
func metricValue(t *testing.T, metrics, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("/metrics has no %s", name)
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFlagCensus holds every flag bcnd registers to exactly one row of
// the flag census table in DESIGN.md (§5d), and every row there to a
// registered flag, so a flag cannot be added without saying which
// script, soak or test sets it, or which operator needs it.
func TestFlagCensus(t *testing.T) {
	var help bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &help); err != nil {
		t.Fatalf("-h: %v", err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help.String(), -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatalf("-h listed no flags:\n%s", help.String())
	}

	f, err := os.Open(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]int{}
	row := regexp.MustCompile("^\\| `-([^`]+)` \\|")
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "| bcnd flag |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		if m := row.FindStringSubmatch(line); m != nil {
			rows[m[1]]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no bcnd flag census table")
	}
	for name := range registered {
		if rows[name] != 1 {
			t.Errorf("flag -%s has %d rows in the DESIGN.md census, want 1", name, rows[name])
		}
	}
	for name := range rows {
		if !registered[name] {
			t.Errorf("DESIGN.md census row -%s names no registered flag", name)
		}
	}
}
