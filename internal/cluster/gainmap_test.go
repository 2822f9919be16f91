package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
)

// TestEvalAnalyticAgreesWithClassic compares rows against the classic
// sampled solver, core.Solve, as the oracle: the verdict columns (case,
// linear, Theorem 1, outcome, strong stability) must be identical — the
// engines share the arc formulas bit for bit — while max_q_bits may
// exceed the sampled peak only by the sampling resolution the row
// engine removed.
func TestEvalAnalyticAgreesWithClassic(t *testing.T) {
	g := testGrid(4)
	ctx := context.Background()
	for _, pt := range g.Points() {
		row, err := g.Eval(ctx, pt, EvalMetrics{})
		if err != nil {
			t.Fatalf("eval %+v: %v", pt, err)
		}
		p := g.Base()
		p.Gi, p.Gd = pt.Gi, pt.Gd
		lin, err := linear.Compare(p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.Solve(p, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%g,%g,%d,%v,%v,%g,%s,%v", pt.Gi, pt.Gd, p.Case(), lin.LinearStable, lin.Theorem1OK,
			core.Theorem1Bound(p), tr.Outcome, tr.Outcome.StronglyStable())
		f := strings.Split(row.CSV, ",")
		if len(f) != 12 {
			t.Fatalf("row %q has %d columns", row.CSV, len(f))
		}
		if got := strings.Join(f[:8], ","); got != want {
			t.Errorf("point %+v: row verdict %q, core.Solve %q", pt, got, want)
		}
		maxQ, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			t.Fatal(err)
		}
		if sampled := tr.MaxQueue(); maxQ < sampled || maxQ > sampled*(1+1e-3) {
			t.Errorf("point %+v: exact max_q_bits %v, sampled %v", pt, maxQ, sampled)
		}
		if f[10] != "0" || f[11] != "" || row.Violations != 0 || row.FirstPred != "" {
			t.Errorf("point %+v: off-policy row carries violations: %+v", pt, row)
		}
	}
}

// TestEvalBatchMatchesEval requires span evaluation to be byte-identical
// to per-point evaluation under both engines and a checked policy —
// EvalBatch is the shard executors' and bcnsweep's hot path, the merged
// map must not depend on which path computed a row, and a span's one
// checker must not carry tallies from point to point.
func TestEvalBatchMatchesEval(t *testing.T) {
	dirty := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 4, Invariants: "record"}
	for _, g := range []GainGrid{testGrid(3), {BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 3, Analytic: "off"}, dirty} {
		pts := g.Points()
		ctx := context.Background()
		rows := make([]Row, len(pts))
		if err := g.EvalBatch(ctx, pts, rows, EvalMetrics{}); err != nil {
			t.Fatalf("%+v: batch: %v", g, err)
		}
		for i, pt := range pts {
			want, err := g.Eval(ctx, pt, EvalMetrics{})
			if err != nil {
				t.Fatalf("%+v: eval: %v", g, err)
			}
			if rows[i] != want {
				t.Errorf("%+v point %d: batch row %+v, eval row %+v", g, i, rows[i], want)
			}
		}
	}
}

// TestEvalBatchAllocs is the row kernel's allocation gate: a warm
// EvalBatch appends its whole span into one buffer and one string, so
// it allocates a small constant number of times per span — not per
// point — however long the span is. A record-policy span adds its one
// checker; on clean rows (this grid has no violations) its tallies
// allocate nothing.
func TestEvalBatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		invariants string
		max        float64
	}{{"", 4}, {"record", 4}} {
		g := testGrid(8)
		g.Invariants = tc.invariants
		pts := g.Points() // 64 points
		ctx := context.Background()
		for _, n := range []int{16, len(pts)} {
			span, rows := pts[:n], make([]Row, n)
			if err := g.EvalBatch(ctx, span, rows, EvalMetrics{}); err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Violations != 0 {
					t.Fatalf("invariants=%q: dirty row %+v; the gate needs clean rows", tc.invariants, r)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				if err := g.EvalBatch(ctx, span, rows, EvalMetrics{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("invariants=%q, %d-point span: %.1f allocations", tc.invariants, n, avg)
			if avg > tc.max {
				t.Errorf("invariants=%q: warm %d-point EvalBatch allocates %.1f times per span, want <= %v",
					tc.invariants, n, avg, tc.max)
			}
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

// TestGridFingerprintSeparatesEngines: rows computed by one stepper must
// never replay as the other's — closed-form and RK45 verdicts agree only
// to the integrator's tolerance — so the engine mode is part of the
// identity.
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

// TestEvalRecordPolicyMatchesSampledOracle: a record-policy row comes
// from the analytic engine with its guard at the exact knots; its tally
// must flag the points core.Solve's sampled guard flags, on the same
// first predicate, and its verdict columns must be the off-policy row's.
// TestKnotGuardMatchesSampledGuard runs the same oracle over 856 points.
func TestEvalRecordPolicyMatchesSampledOracle(t *testing.T) {
	checked := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 4, Invariants: "record"}
	plain := checked
	plain.Invariants = ""
	ctx := context.Background()
	flagged := 0
	for _, pt := range checked.Points() {
		rec, err := checked.Eval(ctx, pt, EvalMetrics{})
		if err != nil {
			t.Fatal(err)
		}
		off, err := plain.Eval(ctx, pt, EvalMetrics{})
		if err != nil {
			t.Fatal(err)
		}
		p := checked.Base()
		p.Gi, p.Gd = pt.Gi, pt.Gd
		tr, err := core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)})
		if err != nil {
			t.Fatal(err)
		}
		if (rec.Violations > 0) != (tr.Violations.Total > 0) || rec.FirstPred != tr.Violations.FirstPredicate() {
			t.Errorf("point %+v: row tally %d %q, sampled %d %q",
				pt, rec.Violations, rec.FirstPred, tr.Violations.Total, tr.Violations.FirstPredicate())
		}
		if rec.Violations > 0 {
			flagged++
		}
		suffix := fmt.Sprintf(",%d,%s", rec.Violations, rec.FirstPred)
		if !strings.HasSuffix(rec.CSV, suffix) || strings.TrimSuffix(rec.CSV, suffix) != strings.TrimSuffix(off.CSV, ",0,") {
			t.Errorf("point %+v: record row %q, off row %q", pt, rec.CSV, off.CSV)
		}
	}
	if flagged == 0 {
		t.Error("no point of the grid is flagged; the oracle checks nothing")
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
