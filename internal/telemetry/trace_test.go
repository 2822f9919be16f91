package telemetry

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock yields a strictly advancing deterministic time.
func fakeClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestTracerSpansAndParents(t *testing.T) {
	tr := NewTracer(8, fakeClock())
	root := tr.Start("solve")
	child := tr.StartChild("arc", root.span.ID)
	child.SetAttr("region", "increase")
	child.End()
	root.End()
	root.End() // double End records once

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ring order is completion order: child first.
	if spans[0].Name != "arc" || spans[1].Name != "solve" {
		t.Fatalf("order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("parent link broken: %+v", spans)
	}
	if spans[0].Attrs[0].Key != "region" || spans[0].Attrs[0].Value != "increase" {
		t.Fatalf("attrs: %+v", spans[0].Attrs)
	}
	if spans[0].Duration <= 0 || spans[1].Duration <= 0 {
		t.Fatalf("durations not positive: %+v", spans)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(3, fakeClock())
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d, want 3", len(spans))
	}
	// Oldest two evicted: ids 3,4,5 remain in order.
	if spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("wrong survivors: %+v", spans)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	sp.SetAttr("k", "v")
	sp.End()
	if sp != nil || tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatalf("nil tracer recorded state")
	}
}

func TestWriteJSONLAndDumpDir(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Counter("points_total", "").Add(7)
	tr := NewTracer(8, fakeClock())
	sp := tr.Start("sweep")
	sp.End()

	if err := DumpDir(dir, "bcnsweep", 1.25, r, tr); err != nil {
		t.Fatal(err)
	}
	var sum Summary
	readJSON(t, filepath.Join(dir, "telemetry.json"), &sum)
	if sum.Tool != "bcnsweep" || sum.WallSeconds != 1.25 || sum.Spans != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	if got := sum.Metrics.Value("points_total"); got != 7 {
		t.Fatalf("points_total = %v, want 7", got)
	}
	raw := readFile(t, filepath.Join(dir, "trace.jsonl"))
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) != 1 {
		t.Fatalf("trace.jsonl has %d lines, want 1", len(lines))
	}
	var span Span
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil || span.Name != "sweep" {
		t.Fatalf("bad span line %q: %v", lines[0], err)
	}

	// Without spans no trace file is written.
	dir2 := t.TempDir()
	if err := DumpDir(dir2, "bcnsim", 0, r, nil); err != nil {
		t.Fatal(err)
	}
	if fileExists(filepath.Join(dir2, "trace.jsonl")) {
		t.Fatalf("trace.jsonl written with no tracer")
	}
}
