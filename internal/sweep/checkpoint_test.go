package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// memCheckpoint is an in-memory Checkpoint for tests.
type memCheckpoint struct {
	mu      sync.Mutex
	m       map[string][]byte
	failOn  string // a batch holding this key fails whole
	records int
	batches int
}

func newMemCheckpoint() *memCheckpoint { return &memCheckpoint{m: map[string][]byte{}} }

func (c *memCheckpoint) Lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *memCheckpoint) RecordBatch(keys []string, values [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range keys {
		if key == c.failOn {
			return errors.New("disk full")
		}
	}
	c.batches++
	for i, key := range keys {
		c.records++
		c.m[key] = values[i]
	}
	return nil
}

func intKey(p int) string { return fmt.Sprintf("p%d", p) }

// perPoint lifts a one-point evaluation to a BatchFunc that evaluates a
// span point by point, stopping at the first error.
func perPoint(fn func(context.Context, int) (int, error)) BatchFunc[int, int] {
	return func(ctx context.Context, pts []int, out []int) error {
		for i, p := range pts {
			v, err := fn(ctx, p)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
}

func TestRunCheckpointedSkipsJournaledPoints(t *testing.T) {
	ck := newMemCheckpoint()
	points := []int{0, 1, 2, 3, 4}
	var evals atomic.Int64
	fn := perPoint(func(_ context.Context, p int) (int, error) {
		evals.Add(1)
		return p * p, nil
	})

	first, err := RunCheckpointed(context.Background(), points, 2, fn, Options{}, ck, intKey)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if got := evals.Load(); got != 5 {
		t.Errorf("first run evaluated %d points, want 5", got)
	}
	for i, r := range first {
		if r.Cached || r.Value != i*i || r.Attempts != 1 {
			t.Errorf("first[%d] = %+v", i, r)
		}
	}
	// One batch per span: spans of 2 over 5 points.
	if ck.batches != 3 || ck.records != 5 {
		t.Errorf("first run recorded %d records in %d batches, want 5 in 3", ck.records, ck.batches)
	}

	// Second run with the same checkpoint: zero evaluations, identical
	// values, all cached.
	evals.Store(0)
	second, err := RunCheckpointed(context.Background(), points, 2, fn, Options{}, ck, intKey)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := evals.Load(); got != 0 {
		t.Errorf("resumed run re-executed %d journaled points", got)
	}
	for i, r := range second {
		if !r.Cached || r.Value != i*i || r.Attempts != 0 {
			t.Errorf("second[%d] = %+v", i, r)
		}
	}
	if ck.batches != 3 {
		t.Errorf("fully replayed run recorded %d more batches", ck.batches-3)
	}
}

func TestRunCheckpointedPartialResume(t *testing.T) {
	ck := newMemCheckpoint()
	points := []int{0, 1, 2, 3, 4, 5}
	// Pre-journal points 0, 2 and 4 as if a prior run had finished them:
	// the unfinished points are not contiguous in the grid.
	for _, p := range []int{0, 2, 4} {
		ck.m[intKey(p)] = []byte(fmt.Sprintf("%d", p*p))
	}
	var evals atomic.Int64
	var spans [][]int
	var mu sync.Mutex
	res, err := RunCheckpointed(context.Background(), points, 2, func(_ context.Context, pts []int, out []int) error {
		mu.Lock()
		spans = append(spans, append([]int(nil), pts...))
		mu.Unlock()
		for i, p := range pts {
			evals.Add(1)
			out[i] = p * p
		}
		return nil
	}, Options{Workers: 1}, ck, intKey)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := evals.Load(); got != 3 {
		t.Errorf("resume evaluated %d points, want exactly the 3 unfinished", got)
	}
	// The unfinished points are packed into spans of their own.
	if fmt.Sprint(spans) != "[[1 3] [5]]" {
		t.Errorf("spans = %v, want [[1 3] [5]]", spans)
	}
	for i, r := range res {
		if r.Point != i || r.Value != i*i {
			t.Errorf("res[%d] = %+v, want point %d value %d", i, r, i, i*i)
		}
		if wantCached := i%2 == 0; r.Cached != wantCached {
			t.Errorf("res[%d].Cached = %v, want %v", i, r.Cached, wantCached)
		}
	}
}

func TestRunCheckpointedCancelMidRunThenResume(t *testing.T) {
	ck := newMemCheckpoint()
	points := make([]int, 8)
	for i := range points {
		points[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	// Simulate SIGINT as the 3rd span (points 4 and 5) starts: the
	// evaluation observes the cancellation cooperatively (exactly how a
	// ctx-aware solve fails), so the first two spans are journaled and
	// nothing stays in flight past the run's return.
	fn := func(ctx context.Context, pts []int, out []int) error {
		if evals.Add(int64(len(pts))) > 4 {
			cancel()
			return ctx.Err()
		}
		for i, p := range pts {
			out[i] = p + 100
		}
		return nil
	}
	res, err := RunCheckpointed(ctx, points, 2, fn, Options{Workers: 1}, ck, intKey)
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
	if ck.records != done || ck.batches != 2 {
		t.Errorf("journal has %d records in %d batches, %d points completed in 2 spans", ck.records, ck.batches, done)
	}

	// Resume to completion: only the unjournaled points evaluate.
	evals.Store(0)
	res2, err := RunCheckpointed(context.Background(), points, 2, perPoint(func(_ context.Context, p int) (int, error) {
		evals.Add(1)
		return p + 100, nil
	}), Options{Workers: 1}, ck, intKey)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if int(evals.Load()) != len(points)-done {
		t.Errorf("resume evaluated %d, want %d", evals.Load(), len(points)-done)
	}
	for i, r := range res2 {
		if r.Err != nil || r.Value != i+100 {
			t.Errorf("res2[%d] = %+v", i, r)
		}
	}
}

// TestRunCheckpointedRecordFailureFailsPoint checks a failed RecordBatch
// fails every point of its span, and only that span: a point whose
// record failed is never reported done, and neither is any point that
// shared its batch.
func TestRunCheckpointedRecordFailureFailsPoint(t *testing.T) {
	ck := newMemCheckpoint()
	ck.failOn = intKey(2)
	res, err := RunCheckpointed(context.Background(), []int{1, 2, 3, 4}, 2,
		perPoint(func(_ context.Context, p int) (int, error) { return p, nil }),
		Options{ContinueOnError: true}, ck, intKey)
	if err == nil {
		t.Fatal("record failure not surfaced")
	}
	if res[0].Err == nil || res[1].Err == nil {
		t.Error("point of a span whose RecordBatch failed has no error")
	}
	if res[2].Err != nil || res[3].Err != nil {
		t.Error("healthy span poisoned by a sibling span's RecordBatch failure")
	}
	for _, p := range []int{1, 2} {
		if _, ok := ck.Lookup(intKey(p)); ok {
			t.Errorf("point %d of the failed batch is journaled", p)
		}
	}
}

func TestRunCheckpointedUndecodableEntryReEvaluates(t *testing.T) {
	ck := newMemCheckpoint()
	ck.m[intKey(0)] = []byte(`"not an int"`)
	var evals atomic.Int64
	res, err := RunCheckpointed(context.Background(), []int{0}, 64,
		perPoint(func(_ context.Context, p int) (int, error) { evals.Add(1); return 7, nil }),
		Options{}, ck, intKey)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if evals.Load() != 1 || res[0].Cached || res[0].Value != 7 {
		t.Errorf("stale-shape entry not re-evaluated: evals=%d res=%+v", evals.Load(), res[0])
	}
	if string(ck.m[intKey(0)]) != "7" {
		t.Errorf("stale-shape entry not superseded: %q", ck.m[intKey(0)])
	}
}

// TestRunCheckpointedTwoFingerprintsShareOneJournal is the
// stale-journal guard: key functions embed the run's configuration
// fingerprint (as cmd/bcnsweep and the cluster coordinator both do), so
// one journal holding records from two different grid hashes replays
// each run only its own rows — grid B never resumes from grid A's
// values, and A's records survive B's run untouched.
func TestRunCheckpointedTwoFingerprintsShareOneJournal(t *testing.T) {
	ck := newMemCheckpoint()
	points := []int{0, 1, 2, 3}
	keyFor := func(fp string) func(int) string {
		return func(p int) string { return fmt.Sprintf("%s:p%d", fp, p) }
	}
	evalFor := func(offset int, evals *atomic.Int64) BatchFunc[int, int] {
		return perPoint(func(_ context.Context, p int) (int, error) {
			evals.Add(1)
			return p + offset, nil
		})
	}

	// Run grid A to completion.
	var evalsA atomic.Int64
	resA, err := RunCheckpointed(context.Background(), points, 3, evalFor(100, &evalsA), Options{}, ck, keyFor("gridA"))
	if err != nil {
		t.Fatalf("grid A: %v", err)
	}

	// Grid B shares the journal but hashes differently: every point is
	// fresh, nothing replays from A's records.
	var evalsB atomic.Int64
	resB, err := RunCheckpointed(context.Background(), points, 3, evalFor(200, &evalsB), Options{}, ck, keyFor("gridB"))
	if err != nil {
		t.Fatalf("grid B: %v", err)
	}
	if got := evalsB.Load(); got != int64(len(points)) {
		t.Errorf("grid B evaluated %d points, want all %d despite A's journal records", got, len(points))
	}
	for i, r := range resB {
		if r.Cached || r.Value != i+200 {
			t.Errorf("grid B point %d poisoned by stale journal: %+v", i, r)
		}
	}

	// A's records are intact: resuming A replays everything.
	evalsA.Store(0)
	resA2, err := RunCheckpointed(context.Background(), points, 3, evalFor(100, &evalsA), Options{}, ck, keyFor("gridA"))
	if err != nil {
		t.Fatalf("grid A resume: %v", err)
	}
	if got := evalsA.Load(); got != 0 {
		t.Errorf("grid A resume re-evaluated %d points after B's run", got)
	}
	for i := range resA {
		if !resA2[i].Cached || resA2[i].Value != resA[i].Value {
			t.Errorf("grid A resume[%d] = %+v, want cached %d", i, resA2[i], resA[i].Value)
		}
	}
	// The journal now holds both grids' records side by side.
	if wantLen := 2 * len(points); len(ck.m) != wantLen {
		t.Errorf("journal holds %d records, want %d (both grids)", len(ck.m), wantLen)
	}
}

// TestRunCheckpointedNilCheckpointFallsBack checks a nil checkpoint or
// key makes RunCheckpointed plain RunBatched, including a nil
// *runstate.Journal-style pointer wrapped in a non-nil interface when
// the key is nil, as bcnsweep passes it without -resume.
func TestRunCheckpointedNilCheckpointFallsBack(t *testing.T) {
	fn := perPoint(func(_ context.Context, p int) (int, error) { return p, nil })
	res, err := RunCheckpointed(context.Background(), []int{1, 2}, 64, fn, Options{}, nil, nil)
	if err != nil || len(res) != 2 || res[0].Value != 1 || res[1].Attempts != 1 {
		t.Errorf("nil checkpoint fallback: res=%v err=%v", res, err)
	}
	var typedNil *memCheckpoint
	res, err = RunCheckpointed(context.Background(), []int{1, 2}, 64, fn, Options{}, typedNil, nil)
	if err != nil || len(res) != 2 || res[1].Value != 2 {
		t.Errorf("typed-nil checkpoint with nil key: res=%v err=%v", res, err)
	}
	if _, err := RunCheckpointed[int, int](context.Background(), []int{1}, 64, nil, Options{}, newMemCheckpoint(), intKey); err == nil {
		t.Error("nil fn accepted")
	}
	if _, err := RunCheckpointed(context.Background(), []int{1}, 0, fn, Options{}, newMemCheckpoint(), intKey); err == nil {
		t.Error("zero span length accepted")
	}
}
