package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bcnphase/internal/cluster"
	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
	"bcnphase/internal/telemetry"
)

func TestRunSweepCSV(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-steps", "3"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != cluster.CSVHeader {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+3*3 {
		t.Errorf("got %d data lines, want 9", len(lines)-1)
	}
	// Every row has the right number of fields and linear always true.
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 12 {
			t.Fatalf("row %q has %d fields", l, len(fields))
		}
		if fields[3] != "true" {
			t.Errorf("linear_stable = %q, want true (Proposition 1)", fields[3])
		}
		// Without -invariants the violation columns are zero/empty.
		if fields[10] != "0" || fields[11] != "" {
			t.Errorf("row %q has nonzero violation columns with checking off", l)
		}
	}
}

// TestRunSweepInvariantsRecord runs grids under the Record policy. A
// moderate-gain grid must be clean; the default grid's extreme corner
// (Gi=12.8, Gd=0.5) legitimately drives the linearized trajectory below
// y = −C (a linearization artifact the guard exists to surface), so
// there the test asserts tally consistency, not cleanliness. The flag
// must be rejected when misspelled.
func TestRunSweepInvariantsRecord(t *testing.T) {
	var clean strings.Builder
	err := run(context.Background(), []string{
		"-steps", "2", "-invariants", "record",
		"-gi-lo", "0.4", "-gi-hi", "0.6", "-gd-lo", "0.0078125", "-gd-hi", "0.01",
	}, &clean)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, l := range strings.Split(strings.TrimSpace(clean.String()), "\n")[1:] {
		fields := strings.Split(l, ",")
		if fields[10] != "0" || fields[11] != "" {
			t.Errorf("moderate-gain point reported violations: %q", l)
		}
	}

	var wide strings.Builder
	if err := run(context.Background(), []string{"-steps", "2", "-invariants", "record"}, &wide); err != nil {
		t.Fatalf("wide run: %v", err)
	}
	dirty := 0
	for _, l := range strings.Split(strings.TrimSpace(wide.String()), "\n")[1:] {
		fields := strings.Split(l, ",")
		zero := fields[10] == "0"
		if zero != (fields[11] == "") {
			t.Errorf("violation count and first predicate disagree: %q", l)
		}
		if !zero {
			dirty++
		}
	}
	if dirty == 0 {
		t.Error("extreme-gain grid reported no violations (expected the y < -C linearization artifact)")
	}

	if err := run(context.Background(), []string{"-steps", "2", "-invariants", "bogus"}, &wide); err == nil {
		t.Error("bogus -invariants value accepted")
	}
}

// TestRunSweepResumeSeparatesPolicies ensures rows journaled under one
// invariant policy are not replayed under another (the policy is part of
// the sweep identity).
func TestRunSweepResumeSeparatesPolicies(t *testing.T) {
	dir := t.TempDir()
	var first strings.Builder
	if err := run(context.Background(), []string{"-steps", "2", "-resume", dir}, &first); err != nil {
		t.Fatalf("first: %v", err)
	}
	var evals atomic.Int64
	evalHook = func(gainPoint) { evals.Add(1) }
	var second strings.Builder
	err := run(context.Background(), []string{"-steps", "2", "-invariants", "record", "-resume", dir}, &second)
	evalHook = nil
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if evals.Load() != 4 {
		t.Errorf("changed policy executed %d points, want all 4 (no cross-policy cache hits)", evals.Load())
	}
}

func TestRunSweepErrors(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-steps", "1"}, &b); err == nil {
		t.Error("steps=1 accepted")
	}
	if err := run(context.Background(), []string{"-b-over-q0", "0.5"}, &b); err == nil {
		t.Error("B <= q0 accepted")
	}
	if err := run(context.Background(), []string{"-nope"}, &b); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestGridEndpoints(t *testing.T) {
	g := cluster.GainGrid{BOverQ0: 5, GiLo: 1, GiHi: 100, GdLo: 1, GdHi: 100, Steps: 3}
	pts := g.Points()
	if len(pts) != 9 {
		t.Fatalf("len(Points) = %d, want 9", len(pts))
	}
	if pts[0].Gi != 1 || pts[0].Gd != 1 {
		t.Errorf("grid start = %+v, want (1, 1)", pts[0])
	}
	if last := pts[len(pts)-1]; last.Gi != 100 || last.Gd != 100 {
		t.Errorf("grid end = %+v, want (100, 100)", last)
	}
}

func TestRunSweepDegradesOnPointTimeout(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), []string{"-steps", "2", "-point-timeout", "1ns"}, &b)
	if err == nil {
		t.Fatal("expired per-point deadline reported no error")
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != cluster.CSVHeader {
		t.Errorf("header lost on degraded sweep: %q", lines[0])
	}
}

func TestRunSweepParallelMatchesSerial(t *testing.T) {
	var serial, par strings.Builder
	if err := run(context.Background(), []string{"-steps", "3", "-workers", "1"}, &serial); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if err := run(context.Background(), []string{"-steps", "3", "-workers", "4"}, &par); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if serial.String() != par.String() {
		t.Error("parallel sweep output differs from serial (ordering lost?)")
	}
}

// End-to-end crash-resume: a sweep interrupted partway (cooperative
// context cancellation standing in for SIGINT — TrapSignals feeds the
// same context in main) and resumed with the same -resume dir must (a)
// never re-execute a journaled point, and (b) produce byte-identical
// stdout and map.csv to a never-interrupted run.
func TestRunSweepCrashResumeByteIdentical(t *testing.T) {
	// 12×12 = 144 points: three spans (64, 64, 16), so the cut can land
	// between whole spans with work on both sides of it.
	const steps = 12
	args := func(dir string) []string {
		return []string{"-steps", strconv.Itoa(steps), "-workers", "1", "-resume", dir}
	}

	// Baseline: uninterrupted run.
	baseDir := t.TempDir()
	var baseline strings.Builder
	if err := run(context.Background(), args(baseDir), &baseline); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	baseCSV, err := os.ReadFile(filepath.Join(baseDir, "map.csv"))
	if err != nil {
		t.Fatalf("baseline map.csv: %v", err)
	}

	// Interrupted run: cancel cooperatively as the second span starts,
	// after the first span has completed and been journaled. Workers=1
	// makes the cut exact: one whole span journaled, two pending.
	runDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firstEvals atomic.Int64
	evalHook = func(gainPoint) {
		if firstEvals.Add(1) == spanSize+1 {
			cancel()
		}
	}
	var interrupted strings.Builder
	err = run(ctx, args(runDir), &interrupted)
	evalHook = nil
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !runstate.Interrupted(err) {
		t.Fatalf("interrupted run not classified resumable: %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(runDir, "map.csv")); !os.IsNotExist(statErr) {
		t.Error("interrupted run published map.csv")
	}
	j, err := runstate.OpenJournal(filepath.Join(runDir, runstate.JournalFileName))
	if err != nil {
		t.Fatalf("interrupted run left no journal: %v", err)
	}
	journaled := j.Len()
	j.Close()
	if journaled < spanSize {
		t.Fatalf("interrupted run journaled %d points, want at least one whole span of %d", journaled, spanSize)
	}

	// Resume: journaled points must not be re-executed (execution
	// counter), and the completed outputs must match the baseline byte
	// for byte.
	var resumeEvals atomic.Int64
	evalHook = func(gainPoint) { resumeEvals.Add(1) }
	var resumed strings.Builder
	err = run(context.Background(), args(runDir), &resumed)
	evalHook = nil
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	total := int64(steps * steps)
	if firstEvals.Load()+resumeEvals.Load() < total {
		t.Errorf("evals %d + %d < %d points: some points never ran", firstEvals.Load(), resumeEvals.Load(), total)
	}
	if resumeEvals.Load() >= total {
		t.Errorf("resume re-executed all %d points (journal ignored)", resumeEvals.Load())
	}
	if resumeEvals.Load() > total-spanSize {
		t.Errorf("resume executed %d points; a whole span of %d was journaled before the cut", resumeEvals.Load(), spanSize)
	}
	if resumed.String() != baseline.String() {
		t.Errorf("resumed stdout differs from uninterrupted baseline:\n--- baseline ---\n%s--- resumed ---\n%s",
			baseline.String(), resumed.String())
	}
	runCSV, err := os.ReadFile(filepath.Join(runDir, "map.csv"))
	if err != nil {
		t.Fatalf("resumed map.csv: %v", err)
	}
	if string(runCSV) != string(baseCSV) {
		t.Error("resumed map.csv differs from uninterrupted baseline")
	}

	// A third run replays everything from the journal: zero executions.
	var thirdEvals atomic.Int64
	evalHook = func(gainPoint) { thirdEvals.Add(1) }
	var third strings.Builder
	err = run(context.Background(), args(runDir), &third)
	evalHook = nil
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if thirdEvals.Load() != 0 {
		t.Errorf("fully-journaled run re-executed %d points", thirdEvals.Load())
	}
	if third.String() != baseline.String() {
		t.Error("fully-replayed stdout differs from baseline")
	}
}

// A journal written under different sweep parameters must not leak rows
// into a resumed run with a different grid.
func TestRunSweepResumeIgnoresForeignJournal(t *testing.T) {
	dir := t.TempDir()
	var first strings.Builder
	if err := run(context.Background(), []string{"-steps", "2", "-resume", dir}, &first); err != nil {
		t.Fatalf("first: %v", err)
	}
	var evals atomic.Int64
	evalHook = func(gainPoint) { evals.Add(1) }
	var second strings.Builder
	err := run(context.Background(), []string{"-steps", "2", "-b-over-q0", "8", "-resume", dir}, &second)
	evalHook = nil
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if evals.Load() != 4 {
		t.Errorf("changed config executed %d points, want all 4 (no cross-config cache hits)", evals.Load())
	}
}

// TestRunSweepResumeReEvaluatesEmptyRows overwrites three rows of a
// finished journal with CRC-valid values that are not rows ({}, null, a
// row with no CSV). The resume must re-evaluate exactly those points,
// supersede the stored values with their real rows and publish the
// map.csv of a plain run, with no blank line.
func TestRunSweepResumeReEvaluatesEmptyRows(t *testing.T) {
	var plain strings.Builder
	if err := run(context.Background(), []string{"-steps", "3"}, &plain); err != nil {
		t.Fatalf("plain: %v", err)
	}
	// bcnsweep's default axes.
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 3}
	fp, err := grid.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var first strings.Builder
	if err := run(context.Background(), []string{"-steps", "3", "-resume", dir}, &first); err != nil {
		t.Fatalf("first: %v", err)
	}
	j, err := runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i, raw := range []string{`{}`, `null`, `{"CSV":"","Violations":0,"FirstPred":""}`} {
		keys = append(keys, cluster.PointKey(fp, grid.Points()[2*i]))
		if err := j.Record(keys[i], []byte(raw)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	var evals atomic.Int64
	evalHook = func(gainPoint) { evals.Add(1) }
	var resumed strings.Builder
	err = run(context.Background(), []string{"-steps", "3", "-resume", dir}, &resumed)
	evalHook = nil
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if evals.Load() != 3 {
		t.Errorf("resume evaluated %d points, want the 3 holding empty values", evals.Load())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "map.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != plain.String() || resumed.String() != plain.String() {
		t.Errorf("resumed map.csv differs from a plain run:\n%s\nwant:\n%s", csv, plain.String())
	}
	if strings.Contains(string(csv), "\n\n") {
		t.Error("map.csv holds a blank row")
	}

	// A second resume replays the superseding rows: no evaluation.
	evals.Store(0)
	evalHook = func(gainPoint) { evals.Add(1) }
	var again strings.Builder
	err = run(context.Background(), []string{"-steps", "3", "-resume", dir}, &again)
	evalHook = nil
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if evals.Load() != 0 || again.String() != plain.String() {
		t.Errorf("second resume evaluated %d points; map equal to plain run: %v", evals.Load(), again.String() == plain.String())
	}
	j, err = runstate.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, key := range keys {
		raw, _ := j.Lookup(key)
		var r row
		if err := json.Unmarshal(raw, &r); err != nil || r.CSV == "" || !strings.Contains(plain.String(), r.CSV+"\n") {
			t.Errorf("seeded point %d not superseded by its row: %s", i, raw)
		}
	}
}

func TestRunSweepResumePreflight(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(context.Background(), []string{"-steps", "2", "-resume", file}, &b); err == nil {
		t.Error("plain file accepted as resume dir")
	}
}

// TestRunSweepTelemetry asserts the -telemetry contract: the run writes
// telemetry.json holding a metrics snapshot with a points/sec gauge and
// nonzero sweep/core counters, plus a span trace, and the instrumented
// run's CSV is byte-identical to an uninstrumented one.
func TestRunSweepTelemetry(t *testing.T) {
	dir := t.TempDir()
	var plain, instrumented strings.Builder
	if err := run(context.Background(), []string{"-steps", "3"}, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run(context.Background(), []string{"-steps", "3", "-telemetry", dir}, &instrumented); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if plain.String() != instrumented.String() {
		t.Error("telemetry changed the CSV output")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
	if err != nil {
		t.Fatalf("telemetry.json: %v", err)
	}
	var sum telemetry.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("decode telemetry.json: %v", err)
	}
	if sum.Tool != "bcnsweep" || sum.WallSeconds <= 0 {
		t.Errorf("summary header: tool=%q wall=%v", sum.Tool, sum.WallSeconds)
	}
	if v := sum.Metrics.Value("sweep_points_total"); v != 9 {
		t.Errorf("sweep_points_total = %v, want 9", v)
	}
	if v := sum.Metrics.Value("bcnsweep_points_per_second"); v <= 0 {
		t.Errorf("bcnsweep_points_per_second = %v, want > 0", v)
	}
	// Default engine is analytic: the closed-form counters light up and
	// the classic solver stays untouched.
	if v := sum.Metrics.Value("analytic_solves_total"); v != 9 {
		t.Errorf("analytic_solves_total = %v, want 9", v)
	}
	if v := sum.Metrics.Value("core_solves_total"); v != 0 {
		t.Errorf("core_solves_total = %v, want 0 (analytic engine default-on)", v)
	}
	trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatalf("trace.jsonl: %v", err)
	}
	if !strings.Contains(string(trace), `"bcnsweep/run"`) {
		t.Errorf("trace missing run span: %s", trace)
	}
}

// TestRunSweepTelemetryPreflight rejects an unwritable telemetry target
// before doing any work.
func TestRunSweepTelemetryPreflight(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(context.Background(), []string{"-steps", "2", "-telemetry", file}, &b); err == nil {
		t.Error("plain file accepted as telemetry dir")
	}
}

// TestClusterModeStampsQoSHeadersAndRetries drives -cluster against a
// stub coordinator that sheds the first submission: the client must
// stamp the tenant and a positive decreasing deadline budget on every
// attempt, honor the Retry-After hint, and come back for the CSV.
func TestClusterModeStampsQoSHeadersAndRetries(t *testing.T) {
	type attempt struct {
		tenant string
		ms     int64
	}
	var mu sync.Mutex
	var attempts []attempt
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.Header.Get(qos.DeadlineHeader), 10, 64)
		mu.Lock()
		attempts = append(attempts, attempt{r.Header.Get(qos.TenantHeader), ms})
		mu.Unlock()
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Bcn-Fresh", "4")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(cluster.CSVHeader + "\n"))
	}))
	defer stub.Close()

	var out strings.Builder
	err := run(context.Background(), []string{
		"-steps", "2", "-cluster", stub.URL,
		"-tenant", "acme", "-deadline", "45s",
	}, &out)
	if err != nil {
		t.Fatalf("cluster mode: %v", err)
	}
	if !strings.HasPrefix(out.String(), cluster.CSVHeader) {
		t.Errorf("output is not the coordinator CSV:\n%s", out.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 2 {
		t.Fatalf("coordinator saw %d attempts, want 2", len(attempts))
	}
	for i, a := range attempts {
		if a.tenant != "acme" {
			t.Errorf("attempt %d: tenant %q, want acme", i, a.tenant)
		}
		if a.ms <= 0 || a.ms > 45000 {
			t.Errorf("attempt %d: deadline budget %dms, want in (0, 45000]", i, a.ms)
		}
	}
	// The retry spent at least the Retry-After second of the fixed budget.
	if attempts[1].ms >= attempts[0].ms {
		t.Errorf("retry budget %dms did not shrink from %dms", attempts[1].ms, attempts[0].ms)
	}
}
