package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"bcnphase/internal/core"
)

// TestEvalAnalyticAgreesWithClassic compares the closed-form row engine
// against the classic sampled one across a small grid: the verdict
// columns (case, linear, Theorem 1, outcome, strong stability) must be
// identical — the engines share the arc formulas bit for bit — while
// max_q_bits may differ only by the sampling resolution the analytic
// engine removed.
func TestEvalAnalyticAgreesWithClassic(t *testing.T) {
	fast := testGrid(4) // Analytic defaults to on
	slow := testGrid(4)
	slow.Analytic = "off"
	ctx := context.Background()
	for _, pt := range fast.Points() {
		fr, err := fast.Eval(ctx, pt, EvalMetrics{})
		if err != nil {
			t.Fatalf("analytic eval %+v: %v", pt, err)
		}
		sr, err := slow.Eval(ctx, pt, EvalMetrics{})
		if err != nil {
			t.Fatalf("classic eval %+v: %v", pt, err)
		}
		ff := strings.Split(fr.CSV, ",")
		sf := strings.Split(sr.CSV, ",")
		if len(ff) != 12 || len(sf) != 12 {
			t.Fatalf("column count: analytic %d classic %d", len(ff), len(sf))
		}
		// gi, gd, case, linear_stable, theorem1_ok, theorem1_bound_bits,
		// outcome, strongly_stable must be byte-identical.
		for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
			if ff[i] != sf[i] {
				t.Errorf("point %+v column %d: analytic %q classic %q", pt, i, ff[i], sf[i])
			}
		}
		if ff[10] != "0" || ff[11] != "" {
			t.Errorf("point %+v: analytic invariant columns %q,%q, want 0 and empty", pt, ff[10], ff[11])
		}
		if fr.Violations != 0 || fr.FirstPred != "" {
			t.Errorf("point %+v: analytic row carries violations %d %q", pt, fr.Violations, fr.FirstPred)
		}
	}
}

// TestEvalBatchMatchesEval requires span evaluation to be byte-identical
// to per-point evaluation under both engines — EvalBatch is the shard
// executors' and bcnsweep's hot path, and the merged map must not
// depend on which path computed a row.
func TestEvalBatchMatchesEval(t *testing.T) {
	for _, engine := range []string{"", "off"} {
		g := testGrid(3)
		g.Analytic = engine
		pts := g.Points()
		ctx := context.Background()
		rows := make([]Row, len(pts))
		if err := g.EvalBatch(ctx, pts, rows, EvalMetrics{}); err != nil {
			t.Fatalf("engine %q: batch: %v", engine, err)
		}
		for i, pt := range pts {
			want, err := g.Eval(ctx, pt, EvalMetrics{})
			if err != nil {
				t.Fatalf("engine %q: eval: %v", engine, err)
			}
			if rows[i] != want {
				t.Errorf("engine %q point %d: batch row %+v, eval row %+v", engine, i, rows[i], want)
			}
		}
	}
}

// TestEvalBatchAllocs is the row kernel's allocation gate: a warm
// analytic-mode EvalBatch appends its whole span into one buffer and
// one string, so it allocates a small constant number of times per
// span — not per point — however long the span is.
func TestEvalBatchAllocs(t *testing.T) {
	g := testGrid(8)
	pts := g.Points() // 64 points
	ctx := context.Background()
	for _, n := range []int{16, len(pts)} {
		span, rows := pts[:n], make([]Row, n)
		if err := g.EvalBatch(ctx, span, rows, EvalMetrics{}); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if err := g.EvalBatch(ctx, span, rows, EvalMetrics{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-point span: %.1f allocations", n, avg)
		if avg > 4 {
			t.Errorf("warm %d-point EvalBatch allocates %.1f times per span, want <= 4", n, avg)
		}
	}
}

// TestEvalBatchRejectsLengthMismatch guards the BatchFunc contract.
func TestEvalBatchRejectsLengthMismatch(t *testing.T) {
	g := testGrid(2)
	if err := g.EvalBatch(context.Background(), g.Points(), make([]Row, 1), EvalMetrics{}); err == nil {
		t.Fatal("mismatched out length accepted")
	}
}

// TestGridFingerprintSeparatesEngines: rows computed by one engine must
// never replay as the other's — max_q_bits is exact on one side and
// sampled on the other — so the engine mode is part of the identity.
func TestGridFingerprintSeparatesEngines(t *testing.T) {
	on := testGrid(3)
	off := testGrid(3)
	off.Analytic = "off"
	fpOn, err := on.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpOff, err := off.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpOn == fpOff {
		t.Error("analytic on and off share a fingerprint")
	}
	explicit := testGrid(3)
	explicit.Analytic = "on"
	fpExplicit, err := explicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpExplicit != fpOn {
		t.Error(`Analytic "" and "on" must share a fingerprint (same rows)`)
	}
}

// TestGridAutoIsOn: "auto" is only a spelling of "on", so an auto grid
// shares the on grid's fingerprint (its journal keys) and its rows.
func TestGridAutoIsOn(t *testing.T) {
	on, auto := testGrid(3), testGrid(3)
	on.Analytic, auto.Analytic = "on", "auto"
	fpOn, err := on.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpAuto, err := auto.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpAuto != fpOn {
		t.Error(`Analytic "auto" and "on" must share a fingerprint`)
	}
	rowsOn := make([]Row, len(on.Points()))
	rowsAuto := make([]Row, len(rowsOn))
	if err := on.EvalBatch(context.Background(), on.Points(), rowsOn, EvalMetrics{}); err != nil {
		t.Fatal(err)
	}
	if err := auto.EvalBatch(context.Background(), auto.Points(), rowsAuto, EvalMetrics{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(RenderCSV(rowsOn), RenderCSV(rowsAuto)) {
		t.Error(`Analytic "auto" rows differ from "on" rows`)
	}
}

// TestGridValidateRejectsBadAnalytic covers the new mode field.
func TestGridValidateRejectsBadAnalytic(t *testing.T) {
	g := testGrid(3)
	g.Analytic = "fast"
	if err := g.Validate(); err == nil {
		t.Fatal(`Analytic "fast" accepted`)
	}
	if _, err := g.Fingerprint(); err == nil {
		t.Fatal(`Fingerprint accepted Analytic "fast"`)
	}
}

// TestEvalInvariantPolicyForcesClassicPath: the analytic engine has no
// invariant instrumentation, so a grid that asks for invariant checking
// must get the classic path — byte-identically to Analytic "off" —
// regardless of the engine field.
func TestEvalInvariantPolicyForcesClassicPath(t *testing.T) {
	checked := testGrid(3)
	checked.Invariants = "record"
	classic := checked
	classic.Analytic = "off"
	sm := core.NewSolveMetrics(nil)
	ctx := context.Background()
	for _, pt := range checked.Points() {
		a, err := checked.Eval(ctx, pt, EvalMetrics{Solve: sm})
		if err != nil {
			t.Fatal(err)
		}
		b, err := classic.Eval(ctx, pt, EvalMetrics{Solve: sm})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("point %+v: record-policy rows differ by engine field: %+v vs %+v", pt, a, b)
		}
	}
}

// BenchmarkEvalBatchRenderCSV is the local sweep's row kernel: a 32×32
// analytic grid evaluated in 64-point EvalBatch spans, then rendered
// to map.csv.
func BenchmarkEvalBatchRenderCSV(b *testing.B) {
	g := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: 32}
	pts := g.Points()
	rows := make([]Row, len(pts))
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(pts); lo += 64 {
			if err := g.EvalBatch(ctx, pts[lo:lo+64], rows[lo:lo+64], EvalMetrics{}); err != nil {
				b.Fatal(err)
			}
		}
		benchCSV = RenderCSV(rows)
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

var benchCSV []byte
