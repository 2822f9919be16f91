package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"

	"bcnphase/internal/telemetry"
)

func TestRunMetricsCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	var mu sync.Mutex
	fails := map[int]int{3: 1, 7: 2} // point -> failures before success
	boom := errors.New("flaky")
	points := make([]int, 10)
	for i := range points {
		points[i] = i
	}
	results, err := Run(context.Background(), points, func(_ context.Context, p int) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		if fails[p] > 0 {
			fails[p]--
			return 0, boom
		}
		return p * p, nil
	}, Options{Workers: 2, Retries: 2, Backoff: 1, ContinueOnError: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("point %v failed: %v", r.Point, r.Err)
		}
	}
	if got := m.Points.Value(); got != 10 {
		t.Fatalf("points = %d, want 10", got)
	}
	if got := m.Retries.Value(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if got := m.Failures.Value(); got != 0 {
		t.Fatalf("failures = %d, want 0", got)
	}
	if got := m.PointSeconds.Count(); got != 10 {
		t.Fatalf("point histogram count = %d, want 10", got)
	}
}

func TestRunMetricsFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	boom := errors.New("always")
	_, err := Run(context.Background(), []int{1, 2}, func(_ context.Context, _ int) (int, error) {
		return 0, boom
	}, Options{Workers: 1, ContinueOnError: true, Metrics: m})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if m.Failures.Value() != 2 {
		t.Fatalf("failures = %d, want 2", m.Failures.Value())
	}
}

// TestRunCheckpointedMetrics checks the checkpointed runner's series:
// fresh points count in Points, replays in Replayed, and
// sweep_checkpoint_seconds takes one sample per recorded span.
func TestRunCheckpointedMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	ck := &mapCheckpoint{m: map[string][]byte{}}
	key := func(p int) string { return string(rune('a' + p)) }
	fn := func(_ context.Context, pts []int, out []int) error {
		for i, p := range pts {
			out[i] = p * 2
		}
		return nil
	}
	opts := Options{Workers: 1, Metrics: m}

	if _, err := RunCheckpointed(context.Background(), []int{0, 1, 2}, 2, fn, opts, ck, key); err != nil {
		t.Fatal(err)
	}
	if m.Points.Value() != 3 || m.Replayed.Value() != 0 {
		t.Fatalf("first pass: points=%d replayed=%d", m.Points.Value(), m.Replayed.Value())
	}
	if m.CheckpointSeconds.Count() != 2 {
		t.Fatalf("checkpoint latency samples = %d, want 2 (one per span)", m.CheckpointSeconds.Count())
	}
	// Second pass replays everything from the journal.
	if _, err := RunCheckpointed(context.Background(), []int{0, 1, 2}, 2, fn, opts, ck, key); err != nil {
		t.Fatal(err)
	}
	if m.Points.Value() != 3 || m.Replayed.Value() != 3 || m.CheckpointSeconds.Count() != 2 {
		t.Fatalf("second pass: points=%d replayed=%d checkpoint samples=%d",
			m.Points.Value(), m.Replayed.Value(), m.CheckpointSeconds.Count())
	}
}

func TestSweepNewMetricsNil(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
}

// mapCheckpoint is an in-memory Checkpoint for tests.
type mapCheckpoint struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *mapCheckpoint) Lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCheckpoint) RecordBatch(keys []string, vals [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, key := range keys {
		c.m[key] = append([]byte(nil), vals[i]...)
	}
	return nil
}
