// Package stats provides time-series metrics used to quantify figure
// reproduction: extremes, interpolation, peaks and oscillation period,
// histograms and percentiles, and error measures between a fluid-model
// trajectory and a packet-level simulation of the same scenario.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptySeries is returned by metrics on series with no samples.
var ErrEmptySeries = errors.New("stats: empty series")

// Series is a sampled scalar signal with non-decreasing timestamps.
type Series struct {
	T, V []float64
}

// NewSeries validates and wraps the given samples.
func NewSeries(t, v []float64) (Series, error) {
	if len(t) != len(v) {
		return Series{}, fmt.Errorf("stats: length mismatch %d vs %d", len(t), len(v))
	}
	if len(t) == 0 {
		return Series{}, ErrEmptySeries
	}
	for i := 1; i < len(t); i++ {
		if t[i] < t[i-1] {
			return Series{}, fmt.Errorf("stats: timestamps decrease at index %d", i)
		}
	}
	return Series{T: t, V: v}, nil
}

// Len returns the sample count.
func (s Series) Len() int { return len(s.T) }

// Min and Max return the value extremes.
func (s Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.V {
		m = math.Min(m, v)
	}
	return m
}

// Max returns the maximum value.
func (s Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.V {
		m = math.Max(m, v)
	}
	return m
}

// At linearly interpolates the value at time t (clamped to the range).
func (s Series) At(t float64) float64 {
	n := len(s.T)
	if t <= s.T[0] {
		return s.V[0]
	}
	if t >= s.T[n-1] {
		return s.V[n-1]
	}
	i := sort.SearchFloat64s(s.T, t)
	if s.T[i] == t {
		return s.V[i]
	}
	w := (t - s.T[i-1]) / (s.T[i] - s.T[i-1])
	return (1-w)*s.V[i-1] + w*s.V[i]
}

// Peak is one local extremum of a series.
type Peak struct {
	T, V float64
	Max  bool
}

// Peaks detects strict local extrema, ignoring excursions smaller than
// minProminence relative to the neighboring samples.
func (s Series) Peaks(minProminence float64) []Peak {
	var peaks []Peak
	for i := 1; i < len(s.V)-1; i++ {
		dl := s.V[i] - s.V[i-1]
		dr := s.V[i] - s.V[i+1]
		switch {
		case dl > minProminence && dr > minProminence:
			peaks = append(peaks, Peak{T: s.T[i], V: s.V[i], Max: true})
		case dl < -minProminence && dr < -minProminence:
			peaks = append(peaks, Peak{T: s.T[i], V: s.V[i], Max: false})
		}
	}
	return peaks
}

// OscillationPeriod estimates the dominant oscillation period from the
// mean spacing of same-kind peaks. ok is false with fewer than two maxima.
func (s Series) OscillationPeriod(minProminence float64) (float64, bool) {
	var maxima []Peak
	for _, p := range s.Peaks(minProminence) {
		if p.Max {
			maxima = append(maxima, p)
		}
	}
	if len(maxima) < 2 {
		return 0, false
	}
	span := maxima[len(maxima)-1].T - maxima[0].T
	return span / float64(len(maxima)-1), true
}

// Histogram bins the values of v into n equal-width bins over
// [min, max], returning the bin centers and counts. It returns an error
// for empty input or fewer than one bin.
func Histogram(v []float64, n int) (centers []float64, counts []int, err error) {
	if len(v) == 0 {
		return nil, nil, ErrEmptySeries
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("stats: histogram needs n >= 1 bins, got %d", n)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo == hi {
		return []float64{lo}, []int{len(v)}, nil
	}
	width := (hi - lo) / float64(n)
	centers = make([]float64, n)
	counts = make([]int, n)
	for i := range centers {
		centers[i] = lo + (float64(i)+0.5)*width
	}
	for _, x := range v {
		idx := int((x - lo) / width)
		if idx >= n {
			idx = n - 1 // the maximum lands in the last bin
		}
		counts[idx]++
	}
	return centers, counts, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of v using the
// nearest-rank method. The input is not modified.
func Percentile(v []float64, p float64) (float64, error) {
	if len(v) == 0 {
		return 0, ErrEmptySeries
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
	}
	sorted := make([]float64, len(v))
	copy(sorted, v)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0], nil
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], nil
}

// RMSE computes the root-mean-square difference between two series over
// the overlap of their time ranges, sampling at n uniform instants with
// linear interpolation.
func RMSE(a, b Series, n int) (float64, error) {
	if a.Len() == 0 || b.Len() == 0 {
		return 0, ErrEmptySeries
	}
	if n < 2 {
		n = 64
	}
	lo := math.Max(a.T[0], b.T[0])
	hi := math.Min(a.T[a.Len()-1], b.T[b.Len()-1])
	if hi <= lo {
		return 0, fmt.Errorf("stats: series do not overlap in time")
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		t := lo + (hi-lo)*float64(i)/float64(n-1)
		d := a.At(t) - b.At(t)
		sum += d * d
	}
	return math.Sqrt(sum / float64(n)), nil
}

// NRMSE is RMSE normalized by the value range of a.
func NRMSE(a, b Series, n int) (float64, error) {
	r, err := RMSE(a, b, n)
	if err != nil {
		return 0, err
	}
	rng := a.Max() - a.Min()
	if rng == 0 {
		return 0, fmt.Errorf("stats: reference series is constant")
	}
	return r / rng, nil
}
