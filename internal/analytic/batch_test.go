package analytic

import (
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/telemetry"
)

func TestBatchMatchesSolve(t *testing.T) {
	params := gridParams(7, 7)
	b := NewBatch(len(params))
	b.Solve(params, Options{})
	if b.Len() != len(params) {
		t.Fatalf("batch len %d, want %d", b.Len(), len(params))
	}
	s := NewSolver()
	for i, p := range params {
		res, err := solve(s, p, Options{})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if b.Err[i] != nil {
			t.Fatalf("point %d: batch error %v", i, b.Err[i])
		}
		if b.Outcome[i] != res.Outcome || b.Path[i] != res.Path ||
			b.Arcs[i] != res.Arcs || b.Crossings[i] != res.Crossings ||
			b.MaxX[i] != res.MaxX || b.MinX[i] != res.MinX ||
			b.Rho[i] != res.Rho || b.EndT[i] != res.EndT ||
			b.EndX[i] != res.EndX || b.EndY[i] != res.EndY {
			t.Errorf("point %d (gi=%g gd=%g): batch column diverges from Solve", i, p.Gi, p.Gd)
		}
	}
}

func TestBatchReportsPointErrors(t *testing.T) {
	good := core.PaperExample()
	var bad core.Params // zero: fails validation
	b := NewBatch(3)
	b.Solve([]core.Params{good, bad, good}, Options{})
	if b.Err[0] != nil || b.Err[2] != nil {
		t.Fatalf("valid points errored: %v, %v", b.Err[0], b.Err[2])
	}
	if b.Err[1] == nil {
		t.Fatal("invalid point did not error")
	}
	if b.Outcome[1] != 0 || b.Path[1] != 0 {
		t.Fatalf("failed point left stale columns: outcome=%v path=%v", b.Outcome[1], b.Path[1])
	}
	if b.Outcome[0] == 0 || b.Outcome[2] == 0 {
		t.Fatal("valid points missing outcomes")
	}
}

func TestBatchResizeReuses(t *testing.T) {
	params := gridParams(5, 5)
	b := NewBatch(len(params))
	b.Solve(params, Options{})
	first := &b.MaxX[0]
	b.Solve(params[:10], Options{})
	if b.Len() != 10 {
		t.Fatalf("len %d, want 10", b.Len())
	}
	if &b.MaxX[0] != first {
		t.Fatal("shrinking batch reallocated its arrays")
	}
	b.Solve(params, Options{})
	if b.Len() != len(params) {
		t.Fatalf("len %d, want %d", b.Len(), len(params))
	}
}

func TestBatchMetricsAggregate(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	params := gridParams(5, 5)
	b := NewBatch(len(params))
	b.Solve(params, Options{Metrics: m})

	var wantArcs, wantCross uint64
	for i := range params {
		wantArcs += uint64(b.Arcs[i])
		wantCross += uint64(b.Crossings[i])
	}
	if got := m.Solves.With(PathAnalytic.String()).Value(); got != uint64(len(params)) {
		t.Errorf("solves metric %d, want %d", got, len(params))
	}
	if got := m.Arcs.With(PathAnalytic.String()).Value(); got != wantArcs {
		t.Errorf("arcs metric %d, want %d", got, wantArcs)
	}
	if got := m.Crossings.Value(); got != wantCross {
		t.Errorf("crossings metric %d, want %d", got, wantCross)
	}
	if got := m.RK45Fallbacks.Value(); got != 0 {
		t.Errorf("fallbacks metric %d, want 0", got)
	}
}

// TestBatchSolveAllocs is the zero-alloc gate of ISSUE #10: a warm Batch
// re-solving the same points must not touch the heap.
func TestBatchSolveAllocs(t *testing.T) {
	params := gridParams(5, 5)
	b := NewBatch(len(params))
	b.Solve(params, Options{}) // warm the buffers
	avg := testing.AllocsPerRun(10, func() {
		b.Solve(params, Options{})
	})
	if avg != 0 {
		t.Fatalf("warm batch solve allocates %.1f times per call, want 0", avg)
	}
}

// TestCheckedSolveAllocs: a warm Solver owns the stitch loop's scratch
// (core.Stitcher's regime and step), its tracker and its RK45 buffers,
// so a solve with an invariant checker and the engine metrics attached
// still allocates nothing. The points are clean (a violation formats
// its detail), as on bcnsweep's default grid.
func TestCheckedSolveAllocs(t *testing.T) {
	base := core.FigureExample()
	base.B = 5 * base.Q0
	var params []core.Params
	for _, gi := range []float64{0.05, 0.1, 0.3, 1} {
		for _, gd := range []float64{0.001, 0.005, 0.02, 0.1} {
			p := base
			p.Gi, p.Gd = gi, gd
			params = append(params, p)
		}
	}
	chk := invariant.NewPolicy(invariant.Record)
	opts := Options{Invariants: chk, Metrics: NewMetrics(telemetry.NewRegistry())}
	s := NewSolver()
	solveAll := func() {
		for _, p := range params {
			chk.Reset()
			if _, err := solve(s, p, opts); err != nil {
				t.Fatal(err)
			}
			if chk.Violations() != 0 {
				t.Fatalf("gi=%v gd=%v: %d violations; the gate needs clean points", p.Gi, p.Gd, chk.Violations())
			}
		}
	}
	solveAll() // warm the buffers and the metric series
	if avg := testing.AllocsPerRun(10, solveAll); avg != 0 {
		t.Fatalf("warm checked solves allocate %.1f times per %d points, want 0", avg, len(params))
	}
}

func BenchmarkSolveBatch(b *testing.B) {
	params := gridParams(16, 16)
	batch := NewBatch(len(params))
	batch.Solve(params, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Solve(params, Options{})
	}
	b.StopTimer()
	pointsPerOp := float64(len(params))
	b.ReportMetric(pointsPerOp*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkSolveBatchRK45(b *testing.B) {
	params := gridParams(8, 8)
	batch := NewBatch(len(params))
	opts := Options{Mode: ModeOff}
	batch.Solve(params, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Solve(params, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(params))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
