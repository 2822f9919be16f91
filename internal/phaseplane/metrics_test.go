package phaseplane

import (
	"errors"
	"math"
	"testing"

	"bcnphase/internal/telemetry"
)

func TestReturnMapMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := sectionY0(1, 1, 100) // damped spiral: returns exist
	m.Metrics = &Metrics{
		Returns:    reg.Counter("phaseplane_returns_total", ""),
		NoReturns:  reg.Counter("phaseplane_no_returns_total", ""),
		FlightTime: reg.Histogram("phaseplane_return_period_seconds", "", nil),
	}
	_, period, err := m.Map(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics.Returns.Value() != 1 || m.Metrics.NoReturns.Value() != 0 {
		t.Fatalf("returns=%d no_returns=%d", m.Metrics.Returns.Value(), m.Metrics.NoReturns.Value())
	}
	if got := m.Metrics.FlightTime.Sum(); math.Abs(got-period) > 1e-12 {
		t.Fatalf("flight time sum = %v, want %v", got, period)
	}

	never := &ReturnMap{
		Field:   func(x, y float64) (float64, float64) { return 1, 1 },
		Sigma:   func(x, y float64) float64 { return y },
		Embed:   func(s float64) (float64, float64) { return s, 0 },
		Project: func(x, y float64) float64 { return x },
		Horizon: 50,
		Metrics: m.Metrics,
	}
	if _, _, err := never.Map(1); !errors.Is(err, ErrNoReturn) {
		t.Fatalf("err = %v, want ErrNoReturn", err)
	}
	if m.Metrics.NoReturns.Value() != 1 {
		t.Fatalf("no_returns = %d, want 1", m.Metrics.NoReturns.Value())
	}
}
