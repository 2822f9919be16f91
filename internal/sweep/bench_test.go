package sweep

import (
	"context"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/telemetry"
)

// benchGrid is a small real workload: a 3x3 gain grid solved with the
// stitched-trajectory machinery, the same shape bcnsweep runs.
func benchGrid() []core.Params {
	base := core.FigureExample()
	var points []core.Params
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			p := base
			p.Gi = 0.1 + 0.2*float64(i)
			p.Gd = 1.0/256 + float64(j)/128
			points = append(points, p)
		}
	}
	return points
}

func benchRunGrid(b *testing.B, m *Metrics) {
	points := benchGrid()
	eval := func(_ context.Context, p core.Params) (float64, error) {
		tr, err := core.Solve(p, core.SolveOptions{})
		if err != nil {
			return 0, err
		}
		return tr.Rho, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := RunBatched(context.Background(), points, 1, perPoint(eval), Options{Workers: 2, Metrics: m})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(points) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

func BenchmarkRunGrid(b *testing.B) { benchRunGrid(b, nil) }

func BenchmarkRunGridTelemetry(b *testing.B) {
	benchRunGrid(b, NewMetrics(telemetry.NewRegistry()))
}
