package sweep

import (
	"time"

	"bcnphase/internal/telemetry"
)

// Metrics instruments parameter sweeps. A nil *Metrics is inert: the
// span loop pays one nil comparison per span and nothing else, so
// the disabled path stays inside the repo's <5% overhead budget even
// for trivially cheap evaluation functions.
type Metrics struct {
	// Points counts evaluated points (fresh evaluations, successful or
	// not; journal replays are counted in Replayed instead).
	Points *telemetry.Counter
	// Failures counts points whose evaluation failed.
	Failures *telemetry.Counter
	// Replayed counts points answered from a journal instead of
	// evaluated (cluster.GainGrid.RunJournaled).
	Replayed *telemetry.Counter
	// PointSeconds is the wall-clock distribution of one evaluation.
	PointSeconds *telemetry.Histogram
	// CheckpointSeconds is the latency of one journal RecordBatch call:
	// one span's rows.
	CheckpointSeconds *telemetry.Histogram
}

// NewMetrics registers the sweep family on r. A nil registry yields a
// nil (inert) Metrics.
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Points:   r.Counter("sweep_points_total", "fresh point evaluations"),
		Failures: r.Counter("sweep_point_failures_total", "points whose final attempt failed"),
		Replayed: r.Counter("sweep_replayed_points_total", "points answered from a checkpoint journal"),
		PointSeconds: r.Histogram("sweep_point_seconds",
			"wall-clock duration of one point evaluation", nil),
		CheckpointSeconds: r.Histogram("sweep_checkpoint_seconds",
			"latency of one checkpoint batch record", telemetry.ExpBuckets(1e-6, 4, 12)),
	}
}

// observeSpan folds one finished batched span (n points evaluated in
// one call) into the registry; the per-point histogram gets the span's
// amortized cost.
func (m *Metrics) observeSpan(n int, failed bool, wall time.Duration) {
	m.Points.Add(uint64(n))
	if failed {
		m.Failures.Add(uint64(n))
	}
	if n > 0 {
		m.PointSeconds.Observe(wall.Seconds() / float64(n))
	}
}
