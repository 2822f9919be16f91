package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
	"bcnphase/internal/telemetry"
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
// to per-point evaluation, unchecked and under a checked policy —
// EvalBatch is the shard executors' and bcnsweep's hot path, the merged
// map must not depend on which path computed a row, and a span's one
// checker must not carry tallies from point to point. EvalBatch copies
// a row's "gi," text from the previous row and its "gd," text from the
// row Steps earlier when the gain bits match, so the cases also feed it
// orders the copy must not be fooled by: shuffled points, spans cut
// across grid rows, repeated gains and gains one ulp apart.
func TestEvalBatchMatchesEval(t *testing.T) {
	dirty := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 4, Invariants: "record"}
	small := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 3}
	for _, g := range []GainGrid{testGrid(3), small, dirty} {
		checkSpans(t, "grid order", g, g.Points(), len(g.Points()))
	}

	g := testGrid(5)
	pts := g.Points()
	shuffled := append([]GainPoint(nil), pts...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	checkSpans(t, "shuffled", g, shuffled, len(shuffled))
	checkSpans(t, "shuffled dirty", dirty, shuffled, 6)
	for _, n := range []int{1, 3, 7, 13} {
		checkSpans(t, fmt.Sprintf("%d-point spans", n), g, pts, n)
	}

	// Repeats: a point twice in a row, a Gi recurring after a different
	// one, and a Gd recurring Steps rows later under a different Gi. Each
	// is followed by its one-ulp neighbour in the same position, whose
	// text differs although the values are all but equal.
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	a, b := pts[6], pts[13]
	reps := []GainPoint{
		a, a, {up(a.Gi), a.Gd}, {a.Gi, b.Gd}, {b.Gi, b.Gd}, {a.Gi, a.Gd},
		{b.Gi, up(a.Gd)}, a, {a.Gi, up(b.Gd)}, {up(b.Gi), up(a.Gd)}, {b.Gi, a.Gd},
	}
	for _, steps := range []int{-1, 0, 1, 2, 3, 5} {
		rg := g
		rg.Steps = steps
		checkSpans(t, fmt.Sprintf("repeats, Steps=%d", steps), rg, reps, len(reps))
	}

	// ±0 compare equal but have distinct bits; neither is a valid gain, so
	// both paths must refuse the point the same way.
	for _, gi := range []float64{0, math.Copysign(0, -1)} {
		span := []GainPoint{a, {gi, a.Gd}}
		errBatch := g.EvalBatch(context.Background(), span, make([]Row, len(span)), EvalMetrics{})
		_, errEval := g.Eval(context.Background(), span[1], EvalMetrics{})
		if errBatch == nil || errEval == nil || errBatch.Error() != errEval.Error() {
			t.Errorf("Gi=%v: batch error %v, eval error %v", gi, errBatch, errEval)
		}
	}

	// Shard-sized spans on a 16-step grid, as the cluster dispatches
	// them: at the default size, and at 32, whose eight spans cross more
	// span boundaries.
	g16 := testGrid(16)
	for _, size := range []int{32, DefaultShardSize} {
		checkSpans(t, fmt.Sprintf("shards of %d", size), g16, g16.Points(), size)
	}
}

// checkSpans evaluates pts in consecutive EvalBatch spans of at most n
// points and requires every row to equal g.Eval's row for its point.
func checkSpans(t *testing.T, name string, g GainGrid, pts []GainPoint, n int) {
	t.Helper()
	ctx := context.Background()
	rows := make([]Row, len(pts))
	for lo := 0; lo < len(pts); lo += n {
		hi := min(lo+n, len(pts))
		if err := g.EvalBatch(ctx, pts[lo:hi], rows[lo:hi], EvalMetrics{}); err != nil {
			t.Fatalf("%s, %+v: batch: %v", name, g, err)
		}
	}
	for i, pt := range pts {
		want, err := g.Eval(ctx, pt, EvalMetrics{})
		if err != nil {
			t.Fatalf("%s, %+v: eval: %v", name, g, err)
		}
		if rows[i] != want {
			t.Errorf("%s, %+v point %d: batch row %+v, eval row %+v", name, g, i, rows[i], want)
		}
	}
}

// TestEvalBatchMetricTotals: EvalBatch solves with the engine metrics
// detached and flushes one tally per span; the registry must end with
// the totals of attaching the metrics to every per-point Solver.Solve.
// Spans include an aborted one, whose solved points still count.
func TestEvalBatchMetricTotals(t *testing.T) {
	g := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 6}
	pts := g.Points()
	spanReg, pointReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	m := EvalMetrics{Analytic: analytic.NewMetrics(spanReg)}
	ctx := context.Background()
	rows := make([]Row, len(pts))
	for lo := 0; lo < len(pts); lo += 5 {
		hi := min(lo+5, len(pts))
		if err := g.EvalBatch(ctx, pts[lo:hi], rows[lo:hi], m); err != nil {
			t.Fatal(err)
		}
	}
	aborted := []GainPoint{pts[0], pts[1], {Gi: -1, Gd: pts[2].Gd}, pts[3]}
	if err := g.EvalBatch(ctx, aborted, make([]Row, len(aborted)), m); err == nil {
		t.Fatal("span with a negative gain did not abort")
	}

	s := analytic.NewSolver()
	opts := analytic.Options{Metrics: analytic.NewMetrics(pointReg)}
	var res analytic.Result
	for _, pt := range append(pts, aborted[:2]...) {
		p := g.Base()
		p.Gi, p.Gd = pt.Gi, pt.Gd
		if err := s.Solve(&p, &opts, &res); err != nil {
			t.Fatal(err)
		}
	}

	span, point := spanReg.Snapshot(), pointReg.Snapshot()
	for _, name := range []string{
		"analytic_solves_total", "analytic_arcs_total", "analytic_crossings_total",
		"analytic_extrema_total", "analytic_outcomes_total", "analytic_rk45_fallbacks_total",
	} {
		got, _ := span.Get(name)
		want, _ := point.Get(name)
		if !reflect.DeepEqual(got.Series, want.Series) {
			t.Errorf("%s: span tallies %+v, per-point solves %+v", name, got.Series, want.Series)
		}
	}
	if f, _ := point.Get("analytic_arcs_total"); len(f.Series) == 0 || f.Series[0].Value == 0 {
		t.Fatalf("no arcs counted: %+v", f)
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

// cancelOnPoll is a context its own polls cancel: the first Err call
// that finds at least n rows of out written answers nil and cancels
// right after, so the cancel lands between two polls. at is how many
// rows were written at that moment (-1 before it).
type cancelOnPoll struct {
	context.Context
	out []Row
	n   int
	at  int
}

// unwritten marks a row EvalBatch has not written.
var unwritten = Row{FirstPred: "unwritten"}

func writtenRows(out []Row) int {
	n := 0
	for _, r := range out {
		if r != unwritten {
			n++
		}
	}
	return n
}

func (c *cancelOnPoll) Err() error {
	if c.at >= 0 {
		return context.Canceled
	}
	if w := writtenRows(c.out); w >= c.n {
		c.at = w
	}
	return nil
}

// TestEvalBatchCancelLatency: a span cancelled mid-way returns
// context.Canceled having written no more than 8 rows after the cancel,
// wherever between two polls the cancel lands.
func TestEvalBatchCancelLatency(t *testing.T) {
	g := testGrid(16)
	pts := g.Points()
	for _, n := range []int{1, 5, 8, 13, 100, 201} {
		out := make([]Row, len(pts))
		for i := range out {
			out[i] = unwritten
		}
		ctx := &cancelOnPoll{Context: context.Background(), out: out, n: n, at: -1}
		err := g.EvalBatch(ctx, pts, out, EvalMetrics{})
		if !errors.Is(err, context.Canceled) || ctx.at < 0 {
			t.Fatalf("cancel after %d rows: err %v, cancelled at %d rows", n, err, ctx.at)
		}
		if w := writtenRows(out); w > ctx.at+8 {
			t.Errorf("cancel at %d rows: %d rows written, want at most %d", ctx.at, w, ctx.at+8)
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

// TestGridValidateRejectsBadAnalytic: the analytic knob is gone (grid
// Format 5), so a submission that still names it, with any value, is
// refused as an unknown field — a 400 (ErrWire), never a silent RK45 or
// closed-form sweep the client did not ask for.
func TestGridValidateRejectsBadAnalytic(t *testing.T) {
	const grid = `{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3`
	if _, err := DecodeSweepRequest(strings.NewReader(grid+`}`), 0); err != nil {
		t.Fatalf("plain grid refused: %v", err)
	}
	for _, mode := range []string{"on", "off", "auto", "", "fast"} {
		body := grid + `,"analytic":"` + mode + `"}`
		if _, err := DecodeSweepRequest(strings.NewReader(body), 0); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", body, err)
		}
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
