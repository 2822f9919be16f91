package sweep

import (
	"context"
	"errors"
	"testing"

	"bcnphase/internal/telemetry"
)

func TestRunMetricsCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	points := make([]int, 10)
	for i := range points {
		points[i] = i
	}
	results, err := RunBatched(context.Background(), points, 1, perPoint(func(_ context.Context, p int) (int, error) {
		return p * p, nil
	}), Options{Workers: 2, ContinueOnError: true, Metrics: m})
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
	_, err := RunBatched(context.Background(), []int{1, 2}, 1, perPoint(func(_ context.Context, _ int) (int, error) {
		return 0, boom
	}), Options{Workers: 1, ContinueOnError: true, Metrics: m})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if m.Failures.Value() != 2 {
		t.Fatalf("failures = %d, want 2", m.Failures.Value())
	}
}

func TestSweepNewMetricsNil(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
}
