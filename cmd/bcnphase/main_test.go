package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/telemetry"
)

func TestRunPaperDefaults(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"case 1 (spiral/spiral)",
		"overflow",
		"NOTE: linear theory declares this system stable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunModelFlags sets each model parameter no other test sets to a
// non-default value and requires the analysis, not only the echoed
// parameter line, to change.
func TestRunModelFlags(t *testing.T) {
	analysis := func(args ...string) string {
		t.Helper()
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		_, rest, _ := strings.Cut(b.String(), "\n") // drop the parameters: line
		return rest
	}
	base := analysis()
	for _, args := range [][]string{
		{"-c", "5e9"}, {"-gi", "2"}, {"-pm", "0.02"}, {"-q0", "2e6"}, {"-ru", "4e6"}, {"-w", "4"},
	} {
		if analysis(args...) == base {
			t.Errorf("%s %s left the analysis unchanged:\n%s", args[0], args[1], base)
		}
	}
}

func TestRunAmpleBuffer(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-b", "14.5e6"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(b.String(), "converged") {
		t.Errorf("expected convergence:\n%s", b.String())
	}
	if strings.Contains(b.String(), "NOTE:") {
		t.Error("no disagreement expected with an ample buffer")
	}
}

func TestRunWarmup(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-b", "14.5e6", "-warmup", "1e8"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWritesSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "portrait.svg")
	var b strings.Builder
	if err := run([]string{"-svg", path}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("svg not written: %v", err)
	}
	if !strings.Contains(string(data), "</svg>") {
		t.Error("incomplete SVG")
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "0"}, &b); err == nil {
		t.Error("invalid params accepted")
	}
	if err := run([]string{"-unknown-flag"}, &b); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-svg", "/nonexistent-dir/x.svg"}, &b); err == nil {
		t.Error("unwritable SVG path accepted")
	}
}

func TestRunSizingAndTransient(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-b", "14.5e6", "-size", "-transient"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{"max flows", "max Gi", "min Gd", "max q0", "oscillation period", "settle"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunInvariantsFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-b", "14.5e6", "-invariants", "record"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(b.String(), "invariants: policy=record") {
		t.Errorf("output missing invariants summary:\n%s", b.String())
	}
	if err := run([]string{"-invariants", "bogus"}, &b); err == nil {
		t.Error("bogus -invariants value accepted")
	}
}

// TestRunBrokenParamsByPolicy pins the CLI contract for invalid
// parameters: off keeps the plain validation error, strict aborts with
// a structured InvariantError naming the predicate, record completes
// with a reduced report and non-zero tallies.
func TestRunBrokenParamsByPolicy(t *testing.T) {
	broken := []string{"-gd", "-0.1"}

	var b strings.Builder
	err := run(broken, &b)
	var ie *invariant.InvariantError
	if err == nil || errors.As(err, &ie) {
		t.Errorf("policy off: want plain validation error, got %v", err)
	}

	b.Reset()
	err = run(append(broken, "-invariants", "strict"), &b)
	if !errors.As(err, &ie) {
		t.Fatalf("policy strict: want *InvariantError, got %v", err)
	}
	if ie.Violation.Predicate != core.PredParamsValid {
		t.Errorf("predicate %q, want %q", ie.Violation.Predicate, core.PredParamsValid)
	}

	b.Reset()
	if err := run(append(broken, "-invariants", "record"), &b); err != nil {
		t.Fatalf("policy record: %v", err)
	}
	got := b.String()
	for _, want := range []string{"parameters: INVALID", "first=" + core.PredParamsValid} {
		if !strings.Contains(got, want) {
			t.Errorf("record output missing %q:\n%s", want, got)
		}
	}
}

func TestRunXCheck(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-b", "14.5e6", "-xcheck"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(b.String(), "xcheck:") {
		t.Errorf("output missing xcheck report:\n%s", b.String())
	}
}

// TestRunTelemetry asserts -telemetry writes a metrics summary with
// solver series without perturbing the analysis output.
func TestRunTelemetry(t *testing.T) {
	dir := t.TempDir()
	var plain, instrumented strings.Builder
	if err := run(nil, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run([]string{"-telemetry", dir}, &instrumented); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if plain.String() != instrumented.String() {
		t.Error("telemetry changed the analysis output")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
	if err != nil {
		t.Fatalf("telemetry.json: %v", err)
	}
	var sum telemetry.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("decode telemetry.json: %v", err)
	}
	if sum.Tool != "bcnphase" {
		t.Errorf("tool = %q", sum.Tool)
	}
	if v := sum.Metrics.Value("core_solves_total"); v != 1 {
		t.Errorf("core_solves_total = %v, want 1", v)
	}
	if v := sum.Metrics.Value("core_arcs_total"); v <= 0 {
		t.Errorf("core_arcs_total = %v, want > 0", v)
	}
}
