package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// perPoint adapts a per-point Func to a one-point BatchFunc, so a test
// can drive RunBatched with span 1.
func perPoint[P, R any](fn Func[P, R]) BatchFunc[P, R] {
	return func(ctx context.Context, pts []P, out []R) (err error) {
		out[0], err = fn(ctx, pts[0])
		return err
	}
}

func TestRunPreservesOrder(t *testing.T) {
	points := []int{5, 3, 9, 1, 7, 2}
	results, err := run(context.Background(), points,
		func(_ context.Context, p int) (int, error) { return p * p, nil },
		Options{Workers: 3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, r := range results {
		if r.Point != points[i] {
			t.Errorf("result %d point = %d, want %d", i, r.Point, points[i])
		}
		if r.Value != points[i]*points[i] {
			t.Errorf("result %d value = %d", i, r.Value)
		}
		if r.Err != nil {
			t.Errorf("result %d err = %v", i, r.Err)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	results, err := run(context.Background(), nil,
		func(_ context.Context, p int) (int, error) { return p, nil }, Options{})
	if err != nil || len(results) != 0 {
		t.Errorf("empty run: %v, %v", results, err)
	}
}

func TestRunNilFunc(t *testing.T) {
	if _, err := run[int, int](context.Background(), []int{1}, nil, Options{}); err == nil {
		t.Error("nil fn accepted")
	}
}

func TestRunErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	results, err := run(context.Background(), points,
		func(_ context.Context, p int) (int, error) {
			if p == 7 {
				return 0, sentinel
			}
			return p, nil
		}, Options{Workers: 4})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if !errors.Is(results[7].Err, sentinel) {
		t.Errorf("point 7 err = %v", results[7].Err)
	}
	// Every point has a result (value or error).
	if len(results) != 100 {
		t.Errorf("results = %d", len(results))
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled
	points := []int{1, 2, 3}
	var ran atomic.Int64
	results, _ := run(ctx, points,
		func(ctx context.Context, p int) (int, error) {
			ran.Add(1)
			return p, nil
		}, Options{Workers: 2})
	for _, r := range results {
		if r.Err == nil {
			t.Error("pre-cancelled context should surface errors")
		}
	}
	if ran.Load() != 0 {
		t.Errorf("%d evaluations ran after cancel", ran.Load())
	}
}

func TestRunConcurrencyBound(t *testing.T) {
	var cur, peak atomic.Int64
	points := make([]int, 64)
	_, err := run(context.Background(), points,
		func(_ context.Context, p int) (int, error) {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			defer cur.Add(-1)
			// A small spin to let workers overlap.
			s := 0
			for i := 0; i < 10000; i++ {
				s += i
			}
			return s, nil
		}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 4 {
		t.Errorf("peak concurrency %d exceeds 4", peak.Load())
	}
}

// TestQuickRunMatchesSequential: concurrent results equal the sequential
// map for random inputs and worker counts.
func TestQuickRunMatchesSequential(t *testing.T) {
	prop := func(points []int16, workersRaw uint8) bool {
		workers := 1 + int(workersRaw%8)
		results, err := run(context.Background(), points,
			func(_ context.Context, p int16) (int32, error) {
				return int32(p) * 3, nil
			}, Options{Workers: workers})
		if err != nil || len(results) != len(points) {
			return false
		}
		for i, r := range results {
			if r.Value != int32(points[i])*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
