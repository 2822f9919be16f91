package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bcnphase/internal/runstate"
	"bcnphase/internal/sweep"
	"bcnphase/internal/telemetry"
)

// openTestJournal opens an empty runstate journal in a test directory.
func openTestJournal(t *testing.T) *runstate.Journal {
	t.Helper()
	j, err := runstate.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// fakeEval is a batch evaluation that renders tag+fakeRow for every
// point of a span and counts the points it evaluates.
func fakeEval(tag string, evals *atomic.Int64) sweep.BatchFunc[GainPoint, Row] {
	return func(_ context.Context, pts []GainPoint, out []Row) error {
		evals.Add(int64(len(pts)))
		for i, pt := range pts {
			out[i] = Row{CSV: tag + fakeRow(pt).CSV}
		}
		return nil
	}
}

// journalKeys returns the PointKey of every point under g's fingerprint.
func journalKeys(t *testing.T, g GainGrid, pts []GainPoint) []string {
	t.Helper()
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(pts))
	for i, pt := range pts {
		keys[i] = PointKey(fp, pt)
	}
	return keys
}

func TestRunJournaledSkipsJournaledPoints(t *testing.T) {
	grid := testGrid(3)
	points := grid.Points()[:5]
	j := openTestJournal(t)
	m := sweep.NewMetrics(telemetry.NewRegistry())
	var evals atomic.Int64

	first, err := grid.RunJournaled(context.Background(), points, 2, fakeEval("", &evals), sweep.Options{Metrics: m}, j)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if got := evals.Load(); got != 5 {
		t.Errorf("first run evaluated %d points, want 5", got)
	}
	for i, r := range first {
		if r.Cached || r.Value != fakeRow(points[i]) || r.Attempts != 1 {
			t.Errorf("first[%d] = %+v", i, r)
		}
	}
	// One batch per span: spans of 2 over 5 points.
	if j.Len() != 5 || m.CheckpointSeconds.Count() != 3 {
		t.Errorf("first run recorded %d records in %d batches, want 5 in 3", j.Len(), m.CheckpointSeconds.Count())
	}
	for i, key := range journalKeys(t, grid, points) {
		raw, _ := j.Lookup(key)
		if want := appendRowJSON(nil, &first[i].Value); !bytes.Equal(raw, want) {
			t.Errorf("point %d journaled as %s, want %s", i, raw, want)
		}
	}

	// Second run with the same journal: zero evaluations, identical
	// values, all cached, nothing recorded.
	evals.Store(0)
	second, err := grid.RunJournaled(context.Background(), points, 2, fakeEval("", &evals), sweep.Options{Metrics: m}, j)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := evals.Load(); got != 0 {
		t.Errorf("resumed run re-executed %d journaled points", got)
	}
	for i, r := range second {
		if !r.Cached || r.Value != first[i].Value || r.Attempts != 0 {
			t.Errorf("second[%d] = %+v", i, r)
		}
	}
	if got := m.CheckpointSeconds.Count(); got != 3 {
		t.Errorf("fully replayed run recorded %d more batches", got-3)
	}
}

func TestRunJournaledPartialResume(t *testing.T) {
	grid := testGrid(3)
	points := grid.Points()[:6]
	keys := journalKeys(t, grid, points)
	j := openTestJournal(t)
	// Pre-journal points 0, 2 and 4 as if a prior run had finished them:
	// the unfinished points are not contiguous in the grid.
	for _, i := range []int{0, 2, 4} {
		row := fakeRow(points[i])
		if err := j.Record(keys[i], appendRowJSON(nil, &row)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var spans [][]GainPoint
	res, err := grid.RunJournaled(context.Background(), points, 2, func(_ context.Context, pts []GainPoint, out []Row) error {
		mu.Lock()
		spans = append(spans, append([]GainPoint(nil), pts...))
		mu.Unlock()
		for i, pt := range pts {
			out[i] = fakeRow(pt)
		}
		return nil
	}, sweep.Options{Workers: 1}, j)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	// Exactly the unfinished points, packed into spans of their own.
	want := [][]GainPoint{{points[1], points[3]}, {points[5]}}
	if fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	for i, r := range res {
		if r.Point != points[i] || r.Value != fakeRow(points[i]) {
			t.Errorf("res[%d] = %+v, want point %v and its row", i, r, points[i])
		}
		if wantCached := i%2 == 0; r.Cached != wantCached {
			t.Errorf("res[%d].Cached = %v, want %v", i, r.Cached, wantCached)
		}
	}
}

func TestRunJournaledCancelMidRunThenResume(t *testing.T) {
	grid := testGrid(3)
	points := grid.Points()[:8]
	j := openTestJournal(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	// Simulate SIGINT as the 3rd span starts: the evaluation observes the
	// cancellation cooperatively (exactly how a ctx-aware solve fails), so
	// the first two spans are journaled and nothing stays in flight past
	// the run's return.
	m := sweep.NewMetrics(telemetry.NewRegistry())
	res, err := grid.RunJournaled(ctx, points, 2, func(ctx context.Context, pts []GainPoint, out []Row) error {
		if evals.Add(int64(len(pts))) > 4 {
			cancel()
			return ctx.Err()
		}
		for i, pt := range pts {
			out[i] = fakeRow(pt)
		}
		return nil
	}, sweep.Options{Workers: 1, Metrics: m}, j)
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	done := 0
	for _, r := range res {
		if r.Err == nil {
			done++
		} else if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("unexpected point error: %v", r.Err)
		}
	}
	if done != 4 {
		t.Fatalf("done = %d, want 4 (two whole spans)", done)
	}
	if j.Len() != done || m.CheckpointSeconds.Count() != 2 {
		t.Errorf("journal has %d records in %d batches, %d points completed in 2 spans", j.Len(), m.CheckpointSeconds.Count(), done)
	}

	// Resume to completion: only the unjournaled points evaluate.
	evals.Store(0)
	res2, err := grid.RunJournaled(context.Background(), points, 2, fakeEval("", &evals), sweep.Options{Workers: 1}, j)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if int(evals.Load()) != len(points)-done {
		t.Errorf("resume evaluated %d, want %d", evals.Load(), len(points)-done)
	}
	for i, r := range res2 {
		if r.Err != nil || r.Value != fakeRow(points[i]) {
			t.Errorf("res2[%d] = %+v", i, r)
		}
	}
}

// TestRunJournaledRecordFailureFailsPoint checks a failed RecordBatch
// fails every point of its span: a point whose record failed is never
// reported done. The journal is closed as the second span evaluates, so
// that span's RecordBatch, and every later one, errors.
func TestRunJournaledRecordFailureFailsPoint(t *testing.T) {
	grid := testGrid(3)
	points := grid.Points()[:4]
	keys := journalKeys(t, grid, points)
	j := openTestJournal(t)
	var spans atomic.Int64
	res, err := grid.RunJournaled(context.Background(), points, 2, func(_ context.Context, pts []GainPoint, out []Row) error {
		if spans.Add(1) == 2 {
			j.Close()
		}
		for i, pt := range pts {
			out[i] = fakeRow(pt)
		}
		return nil
	}, sweep.Options{Workers: 1, ContinueOnError: true}, j)
	if err == nil {
		t.Fatal("record failure not surfaced")
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Error("span recorded before the journal closed has an error")
	}
	if res[2].Err == nil || res[3].Err == nil {
		t.Error("point of a span whose RecordBatch failed has no error")
	}
	for i, key := range keys {
		if _, ok := j.Lookup(key); ok != (i < 2) {
			t.Errorf("point %d journaled = %v, want %v", i, ok, i < 2)
		}
	}
}

// TestRunJournaledUndecodableEntryReEvaluates checks the replay rule:
// a CRC-valid value that is not a replayable row (not a row at all, an
// empty object, null, a row with no CSV) is re-evaluated and superseded
// by the real row.
func TestRunJournaledUndecodableEntryReEvaluates(t *testing.T) {
	grid := testGrid(3)
	points := grid.Points()[:4]
	keys := journalKeys(t, grid, points)
	j := openTestJournal(t)
	for i, raw := range []string{`"not a row"`, `{}`, `null`, `{"CSV":"","Violations":0,"FirstPred":""}`} {
		if err := j.Record(keys[i], []byte(raw)); err != nil {
			t.Fatal(err)
		}
	}
	var evals atomic.Int64
	res, err := grid.RunJournaled(context.Background(), points, 64, fakeEval("", &evals), sweep.Options{}, j)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if evals.Load() != int64(len(points)) {
		t.Errorf("evaluated %d points, want all %d unreplayable ones", evals.Load(), len(points))
	}
	for i, r := range res {
		want := fakeRow(points[i])
		if r.Cached || r.Value != want {
			t.Errorf("res[%d] = %+v, want a fresh %v", i, r, want)
		}
		if raw, _ := j.Lookup(keys[i]); !bytes.Equal(raw, appendRowJSON(nil, &want)) {
			t.Errorf("point %d not superseded: %s", i, raw)
		}
	}
}

// TestRunJournaledTwoFingerprintsShareOneJournal is the stale-journal
// guard: keys embed the grid's fingerprint, so one journal holding
// records of two grids replays each run only its own rows. Grid B never
// resumes from grid A's values, and A's records survive B's run.
func TestRunJournaledTwoFingerprintsShareOneJournal(t *testing.T) {
	gridA, gridB := testGrid(2), testGrid(2)
	gridB.BOverQ0 = 8 // same points, another identity
	points := gridA.Points()
	j := openTestJournal(t)

	var evalsA, evalsB atomic.Int64
	resA, err := gridA.RunJournaled(context.Background(), points, 3, fakeEval("A", &evalsA), sweep.Options{}, j)
	if err != nil {
		t.Fatalf("grid A: %v", err)
	}
	resB, err := gridB.RunJournaled(context.Background(), points, 3, fakeEval("B", &evalsB), sweep.Options{}, j)
	if err != nil {
		t.Fatalf("grid B: %v", err)
	}
	if got := evalsB.Load(); got != int64(len(points)) {
		t.Errorf("grid B evaluated %d points, want all %d despite A's journal records", got, len(points))
	}
	for i, r := range resB {
		if r.Cached || r.Value.CSV != "B"+fakeRow(points[i]).CSV {
			t.Errorf("grid B point %d poisoned by stale journal: %+v", i, r)
		}
	}

	// A's records are intact: resuming A replays everything.
	evalsA.Store(0)
	resA2, err := gridA.RunJournaled(context.Background(), points, 3, fakeEval("A", &evalsA), sweep.Options{}, j)
	if err != nil {
		t.Fatalf("grid A resume: %v", err)
	}
	if got := evalsA.Load(); got != 0 {
		t.Errorf("grid A resume re-evaluated %d points after B's run", got)
	}
	for i := range resA {
		if !resA2[i].Cached || resA2[i].Value != resA[i].Value {
			t.Errorf("grid A resume[%d] = %+v, want cached %v", i, resA2[i], resA[i].Value)
		}
	}
	if want := 2 * len(points); j.Len() != want {
		t.Errorf("journal holds %d records, want %d (both grids)", j.Len(), want)
	}
}

// TestRunJournaledNilJournalFallsBack checks a nil journal makes
// RunJournaled plain sweep.RunBatched, and that a bad evaluation
// function or span length is refused with a journal too.
func TestRunJournaledNilJournalFallsBack(t *testing.T) {
	grid := testGrid(2)
	points := grid.Points()
	var evals atomic.Int64
	res, err := grid.RunJournaled(context.Background(), points, 64, fakeEval("", &evals), sweep.Options{}, nil)
	if err != nil || len(res) != len(points) || res[0].Value != fakeRow(points[0]) || res[1].Attempts != 1 || res[1].Cached {
		t.Errorf("nil journal fallback: res=%v err=%v", res, err)
	}
	j := openTestJournal(t)
	if _, err := grid.RunJournaled(context.Background(), points, 64, nil, sweep.Options{}, j); err == nil {
		t.Error("nil fn accepted")
	}
	if _, err := grid.RunJournaled(context.Background(), points, 0, fakeEval("", &evals), sweep.Options{}, j); err == nil {
		t.Error("zero span length accepted")
	}
}

// TestRunJournaledMetrics checks the journaled runner's series: fresh
// points count in Points, replays in Replayed, and
// sweep_checkpoint_seconds takes one sample per recorded span.
func TestRunJournaledMetrics(t *testing.T) {
	grid := testGrid(2)
	points := grid.Points()[:3]
	m := sweep.NewMetrics(telemetry.NewRegistry())
	j := openTestJournal(t)
	var evals atomic.Int64
	opts := sweep.Options{Workers: 1, Metrics: m}

	if _, err := grid.RunJournaled(context.Background(), points, 2, fakeEval("", &evals), opts, j); err != nil {
		t.Fatal(err)
	}
	if m.Points.Value() != 3 || m.Replayed.Value() != 0 {
		t.Fatalf("first pass: points=%d replayed=%d", m.Points.Value(), m.Replayed.Value())
	}
	if m.CheckpointSeconds.Count() != 2 {
		t.Fatalf("checkpoint latency samples = %d, want 2 (one per span)", m.CheckpointSeconds.Count())
	}
	// Second pass replays everything from the journal.
	if _, err := grid.RunJournaled(context.Background(), points, 2, fakeEval("", &evals), opts, j); err != nil {
		t.Fatal(err)
	}
	if m.Points.Value() != 3 || m.Replayed.Value() != 3 || m.CheckpointSeconds.Count() != 2 {
		t.Fatalf("second pass: points=%d replayed=%d checkpoint samples=%d",
			m.Points.Value(), m.Replayed.Value(), m.CheckpointSeconds.Count())
	}
}

// TestJournalsInterchangeable holds the claim that a coordinator journal
// and a bcnsweep -resume journal are one format: each side resumes the
// other's runstate.Journal without evaluating a point and merges the
// same map.csv bytes.
func TestJournalsInterchangeable(t *testing.T) {
	grid := testGrid(5) // 25 points, 7 shards at size 4
	const shardSize = 4
	points := grid.Points()

	t.Run("RunJournaled to Coordinator", func(t *testing.T) {
		j := openTestJournal(t)
		local, err := grid.RunJournaled(context.Background(), points, 8, func(ctx context.Context, pts []GainPoint, out []Row) error {
			return grid.EvalBatch(ctx, pts, out, EvalMetrics{})
		}, sweep.Options{}, j)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, len(local))
		for i, r := range local {
			rows[i] = r.Value
		}
		w := newFakeWorker(t, nil)
		c, err := New(Config{Workers: []string{w.URL()}, ShardSize: shardSize, Journal: j, HeartbeatInterval: -1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out, err := c.Run(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.CSV, RenderCSV(rows)) {
			t.Errorf("coordinator merged other bytes than the local run:\n%s\nwant:\n%s", out.CSV, RenderCSV(rows))
		}
		if n := w.requests.Load(); n != 0 {
			t.Errorf("coordinator dispatched %d shards over a complete journal, want 0", n)
		}
		// Every row replays; each shard, lacking only its done marker, is
		// re-sealed and nothing else.
		if out.Fresh != 0 || out.Replayed != len(points) || out.OrphanShards != 7 {
			t.Errorf("out = %+v, want %d replayed and 7 re-sealed shards", out, len(points))
		}
		fp, _ := grid.Fingerprint()
		for i := 0; i < 7; i++ {
			if _, ok := j.Lookup(DoneKey(fp, i)); !ok {
				t.Errorf("shard %d not re-sealed", i)
			}
		}
	})

	t.Run("Coordinator to RunJournaled", func(t *testing.T) {
		j := openTestJournal(t)
		w := newFakeWorker(t, nil)
		c, err := New(Config{Workers: []string{w.URL()}, ShardSize: shardSize, Journal: j, HeartbeatInterval: -1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out, err := c.Run(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		var evals atomic.Int64
		local, err := grid.RunJournaled(context.Background(), points, 8, fakeEval("", &evals), sweep.Options{}, j)
		if err != nil {
			t.Fatal(err)
		}
		if n := evals.Load(); n != 0 {
			t.Errorf("RunJournaled evaluated %d points over a coordinator's journal, want 0", n)
		}
		rows := make([]Row, len(local))
		for i, r := range local {
			if !r.Cached {
				t.Errorf("point %d not replayed", i)
			}
			rows[i] = r.Value
		}
		if !bytes.Equal(RenderCSV(rows), out.CSV) {
			t.Errorf("replayed map differs from the coordinator's:\n%s\nwant:\n%s", RenderCSV(rows), out.CSV)
		}
	})
}
