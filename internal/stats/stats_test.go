package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func sine(n int, amp, period float64) Series {
	t := make([]float64, n)
	v := make([]float64, n)
	for i := range t {
		t[i] = float64(i) * 0.01
		v[i] = amp * math.Sin(2*math.Pi*t[i]/period)
	}
	return Series{T: t, V: v}
}

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewSeries(nil, nil); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("err = %v, want ErrEmptySeries", err)
	}
	if _, err := NewSeries([]float64{0, 2, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("decreasing timestamps accepted")
	}
	if _, err := NewSeries([]float64{0, 1, 1}, []float64{1, 2, 3}); err != nil {
		t.Errorf("equal timestamps rejected: %v", err)
	}
}

func TestMinMaxMean(t *testing.T) {
	s, err := NewSeries([]float64{0, 1, 2}, []float64{1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestAtInterpolation(t *testing.T) {
	s := Series{T: []float64{0, 1, 2}, V: []float64{0, 10, 0}}
	if got := s.At(0.5); got != 5 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := s.At(-1); got != 0 {
		t.Errorf("At(-1) = %v (clamp)", got)
	}
	if got := s.At(5); got != 0 {
		t.Errorf("At(5) = %v (clamp)", got)
	}
	if got := s.At(1); got != 10 {
		t.Errorf("At(exact) = %v", got)
	}
}

func TestPeaksAndOscillation(t *testing.T) {
	s := sine(400, 2, 1) // 4 seconds, 4 periods
	peaks := s.Peaks(1e-6)
	var maxima int
	for _, p := range peaks {
		if p.Max {
			maxima++
			if math.Abs(p.V-2) > 0.01 {
				t.Errorf("maximum %v far from amplitude", p.V)
			}
		}
	}
	if maxima != 4 {
		t.Errorf("maxima = %d, want 4", maxima)
	}
	period, ok := s.OscillationPeriod(1e-6)
	if !ok || math.Abs(period-1) > 0.02 {
		t.Errorf("period = %v, %v; want ~1", period, ok)
	}
}

func TestOscillationNotDetectedOnMonotone(t *testing.T) {
	s := Series{T: []float64{0, 1, 2, 3}, V: []float64{0, 1, 2, 3}}
	if _, ok := s.OscillationPeriod(0.01); ok {
		t.Error("monotone series should have no period")
	}
}

func TestRMSE(t *testing.T) {
	a := sine(200, 1, 1)
	b := sine(200, 1, 1)
	r, err := RMSE(a, b, 100)
	if err != nil {
		t.Fatalf("RMSE: %v", err)
	}
	if r > 1e-12 {
		t.Errorf("identical series RMSE = %v", r)
	}
	// Offset by 0.5: RMSE exactly 0.5.
	c := sine(200, 1, 1)
	for i := range c.V {
		c.V[i] += 0.5
	}
	r, err = RMSE(a, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-9 {
		t.Errorf("offset RMSE = %v, want 0.5", r)
	}
	if _, err := RMSE(Series{}, a, 10); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("empty err = %v", err)
	}
	// Non-overlapping.
	d := Series{T: []float64{100, 101}, V: []float64{0, 0}}
	if _, err := RMSE(a, d, 10); err == nil {
		t.Error("non-overlapping accepted")
	}
}

func TestNRMSE(t *testing.T) {
	a := sine(200, 2, 1)
	c := sine(200, 2, 1)
	for i := range c.V {
		c.V[i] += 0.4
	}
	r, err := NRMSE(a, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 0.4 / range 4 = 0.1.
	if math.Abs(r-0.1) > 1e-6 {
		t.Errorf("NRMSE = %v, want 0.1", r)
	}
	flat := Series{T: []float64{0, 1}, V: []float64{1, 1}}
	if _, err := NRMSE(flat, flat, 10); err == nil {
		t.Error("constant reference accepted")
	}
}

// TestQuickAtWithinBounds: interpolation never leaves the sample hull.
func TestQuickAtWithinBounds(t *testing.T) {
	prop := func(raw []uint8, tRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		ts := make([]float64, len(raw))
		vs := make([]float64, len(raw))
		for i, r := range raw {
			ts[i] = float64(i)
			vs[i] = float64(r)
		}
		s, err := NewSeries(ts, vs)
		if err != nil {
			return false
		}
		tq := float64(tRaw) / 8
		v := s.At(tq)
		return v >= s.Min()-1e-9 && v <= s.Max()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {50, 3}, {100, 5}, {99, 5},
	}
	for _, c := range cases {
		got, err := Percentile(v, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be mutated.
	if v[0] != 5 {
		t.Error("Percentile mutated its input")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Percentile(v, 150); err == nil {
		t.Error("out-of-range percentile accepted")
	}
}
