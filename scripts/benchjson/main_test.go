package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: bcnphase
cpu: Test CPU @ 2.00GHz
BenchmarkSolveStitched-8   	     100	  11031781 ns/op	  123456 B/op	     789 allocs/op
BenchmarkNoSuffix 	      50	   2000000 ns/op
PASS
ok  	bcnphase	1.234s
pkg: bcnphase/internal/telemetry
BenchmarkCounterInc-8   	1000000000	         0.5000 ns/op
PASS
`

func TestRunParsesStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var echo strings.Builder
	parsed, err := run(strings.NewReader(sample), &echo, out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(parsed.Benchmarks) != 3 {
		t.Errorf("run returned %d benchmarks, want 3", len(parsed.Benchmarks))
	}
	if echo.String() != sample {
		t.Error("input not echoed verbatim")
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || !strings.Contains(doc.CPU, "Test CPU") {
		t.Errorf("header: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Pkg != "bcnphase" || b.Name != "BenchmarkSolveStitched" || b.Procs != 8 || b.Iterations != 100 {
		t.Errorf("first: %+v", b)
	}
	if b.Metrics["ns/op"] != 11031781 || b.Metrics["B/op"] != 123456 || b.Metrics["allocs/op"] != 789 {
		t.Errorf("first metrics: %v", b.Metrics)
	}
	if doc.Benchmarks[1].Procs != 1 {
		t.Errorf("no-suffix procs = %d, want 1", doc.Benchmarks[1].Procs)
	}
	if got := doc.Benchmarks[2]; got.Pkg != "bcnphase/internal/telemetry" || got.Metrics["ns/op"] != 0.5 {
		t.Errorf("third: %+v", got)
	}
}

// fiveRuns is one benchmark run with -count=5 beside a single-run one.
const fiveRuns = `pkg: bcnphase
BenchmarkSweepLocalOp-2   	     100	  10 ns/op	  1000 points/s
BenchmarkSweepLocalOp-2   	     120	  30 ns/op	   850 points/s
BenchmarkOnce-2   	       7	  70 ns/op
BenchmarkSweepLocalOp-2   	     110	  20 ns/op	   880 points/s
BenchmarkSweepLocalOp-2   	      90	  50 ns/op	   990 points/s
BenchmarkSweepLocalOp-2   	     130	  40 ns/op	  1005 points/s
PASS
`

// TestRunFoldsRepeatedRuns: the five lines of one benchmark fold into
// one result holding each metric's median, its interquartile range and
// the run count, and -against compares that median: 990 points/s
// against 1000 is no regression, though the slowest run (850) would be.
func TestRunFoldsRepeatedRuns(t *testing.T) {
	var echo strings.Builder
	doc, err := run(strings.NewReader(fiveRuns), &echo, filepath.Join(t.TempDir(), "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != fiveRuns {
		t.Error("input not echoed verbatim")
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkSweepLocalOp" || b.Runs != 5 || b.Iterations != 550 {
		t.Errorf("folded result %+v, want 5 runs and 550 iterations", b)
	}
	if b.Metrics["ns/op"] != 30 || b.Metrics["points/s"] != 990 {
		t.Errorf("medians %v, want ns/op 30 and points/s 990", b.Metrics)
	}
	if b.IQR["ns/op"] != 20 || b.IQR["points/s"] != 1000-880 {
		t.Errorf("iqr %v, want ns/op 20 and points/s 120", b.IQR)
	}
	if once := doc.Benchmarks[1]; once.Runs != 0 || once.IQR != nil || once.Metrics["ns/op"] != 70 {
		t.Errorf("single run %+v, want no runs or iqr and ns/op 70", once)
	}
	var buf strings.Builder
	prev := bench("BenchmarkSweepLocalOp", map[string]float64{"points/s": 1000, "ns/op": 25})
	if regs := compare(File{Benchmarks: doc.Benchmarks[:1]}, prev, gaugeSet("points/s"), &buf); len(regs) != 0 {
		t.Errorf("median 990 against 1000 gated: %v\n%s", regs, buf.String())
	}
	if !strings.Contains(buf.String(), "points/s: 1000 -> 990 (-1.0%)") {
		t.Errorf("median delta missing:\n%s", buf.String())
	}
}

// bench builds a one-benchmark File for compare tests.
func bench(name string, metrics map[string]float64) File {
	return File{Benchmarks: []Result{{Pkg: "bcnphase", Name: name, Metrics: metrics}}}
}

func TestCompareGaugeRegression(t *testing.T) {
	gauges := gaugeSet("points/s")
	prev := bench("BenchmarkSweepAnalytic", map[string]float64{"points/s": 1000, "ns/op": 50})
	for _, tc := range []struct {
		name    string
		cur     float64
		regress bool
	}{
		{"improved", 2000, false},
		{"flat", 1000, false},
		{"down 10% exactly", 900, false}, // gate is strictly more than 10%
		{"down 11%", 890, true},
		{"collapsed", 1, true},
	} {
		cur := bench("BenchmarkSweepAnalytic", map[string]float64{"points/s": tc.cur, "ns/op": 50})
		var buf strings.Builder
		regs := compare(cur, prev, gauges, &buf)
		if got := len(regs) > 0; got != tc.regress {
			t.Errorf("%s: regressions %v, want regress=%v\noutput:\n%s", tc.name, regs, tc.regress, buf.String())
		}
		if !strings.Contains(buf.String(), "points/s") || !strings.Contains(buf.String(), "ns/op") {
			t.Errorf("%s: missing per-metric delta lines:\n%s", tc.name, buf.String())
		}
	}
}

// TestCompareGaugeRegressionNeedsGapBeyondIQR: a drop past the threshold
// gates only when the median gap also exceeds the baseline's IQR. Both
// pairs drop 20% (1000 -> 800); the noisy baseline's runs span 300, the
// quiet one's 50.
func TestCompareGaugeRegressionNeedsGapBeyondIQR(t *testing.T) {
	gauges := gaugeSet("points/s")
	for _, tc := range []struct {
		name    string
		iqr     float64
		regress bool
	}{
		{"inside the spread", 300, false},
		{"outside the spread", 50, true},
	} {
		prev := bench("BenchmarkSweepAnalytic", map[string]float64{"points/s": 1000})
		prev.Benchmarks[0].Runs = 5
		prev.Benchmarks[0].IQR = map[string]float64{"points/s": tc.iqr}
		cur := bench("BenchmarkSweepAnalytic", map[string]float64{"points/s": 800})
		var buf strings.Builder
		regs := compare(cur, prev, gauges, &buf)
		if got := len(regs) > 0; got != tc.regress {
			t.Errorf("%s: regressions %v, want regress=%v\noutput:\n%s", tc.name, regs, tc.regress, buf.String())
		}
		if !tc.regress && !strings.Contains(buf.String(), "within baseline IQR 300") {
			t.Errorf("%s: drop inside the spread not noted:\n%s", tc.name, buf.String())
		}
	}
}

// Lower-is-better metrics (ns/op, B/op, allocs/op) inform but never
// gate — only named gauges carry the exit code.
func TestCompareNonGaugeNeverGates(t *testing.T) {
	prev := bench("BenchmarkSolveBatch", map[string]float64{"ns/op": 100})
	cur := bench("BenchmarkSolveBatch", map[string]float64{"ns/op": 100000})
	var buf strings.Builder
	if regs := compare(cur, prev, gaugeSet("points/s"), &buf); len(regs) != 0 {
		t.Errorf("ns/op blow-up gated the comparison: %v", regs)
	}
	if !strings.Contains(buf.String(), "+99900.0%") {
		t.Errorf("delta not printed:\n%s", buf.String())
	}
}

// Benchmarks new on either side are noted, never gating; a zero
// baseline cannot divide.
func TestCompareMissingAndZeroBaselines(t *testing.T) {
	prev := bench("BenchmarkOld", map[string]float64{"points/s": 0})
	cur := File{Benchmarks: []Result{
		{Pkg: "bcnphase", Name: "BenchmarkOld", Metrics: map[string]float64{"points/s": 0, "MB/s": 3}},
		{Pkg: "bcnphase", Name: "BenchmarkNew", Metrics: map[string]float64{"points/s": 5}},
	}}
	var buf strings.Builder
	if regs := compare(cur, prev, gaugeSet("points/s"), &buf); len(regs) != 0 {
		t.Errorf("missing/zero baselines gated: %v", regs)
	}
	out := buf.String()
	if !strings.Contains(out, "BenchmarkNew: no baseline") || !strings.Contains(out, "MB/s: 3 (no baseline)") {
		t.Errorf("missing-baseline notes absent:\n%s", out)
	}
}

// The full loop: write a baseline with run(), reload it with load(),
// and compare a faster second run against it.
func TestCompareRoundTripThroughDisk(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_1.json")
	if _, err := run(strings.NewReader(sample), io.Discard, basePath); err != nil {
		t.Fatal(err)
	}
	prev, err := load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	faster := strings.ReplaceAll(sample, "11031781 ns/op", "5031781 ns/op")
	cur, err := run(strings.NewReader(faster), io.Discard, filepath.Join(dir, "BENCH_2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if regs := compare(cur, prev, gaugeSet("points/s"), &buf); len(regs) != 0 {
		t.Errorf("faster run flagged as regression: %v", regs)
	}
	if !strings.Contains(buf.String(), "(-54.4%)") {
		t.Errorf("ns/op delta missing:\n%s", buf.String())
	}
	if _, err := load(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("load of a missing baseline succeeded")
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkFoo-8", "BenchmarkFoo", 8},
		{"BenchmarkFoo", "BenchmarkFoo", 1},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
		{"BenchmarkA-b-16", "BenchmarkA-b", 16},
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = (%q, %d), want (%q, %d)", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}
