package netsim

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"bcnphase/internal/faults"
)

// FuzzConfigValidate feeds arbitrary scenario parameters to the
// validator and, when a configuration is accepted, runs a short
// event-budgeted simulation: an accepted Config must never panic the
// simulator or produce non-finite results.
func FuzzConfigValidate(f *testing.F) {
	f.Add(2, 1e9, 1e10, 12000.0, 4e6, int64(1000), 5e8, 2e5, 2.0, 0.01, 8e6, 0.5, 1.0/64, int64(0), false, 0.0, int64(0))
	f.Add(1, 1e6, 1e6, 8.0, 100.0, int64(0), 1.0, 50.0, 1.0, 1.0, 1.0, 1.0, 1.0, int64(7), true, 0.1, int64(100))
	f.Add(0, -1.0, 0.0, math.NaN(), math.Inf(1), int64(-5), 0.0, 0.0, -1.0, 2.0, -1.0, 0.0, math.Inf(-1), int64(0), false, 2.0, int64(-1))
	f.Add(3, 1e12, 1e12, 1e9, 1e15, int64(1), 1e11, 1e14, 100.0, 1e-6, 1e9, 100.0, 1e-9, int64(-1), true, 1.0, int64(1))

	f.Fuzz(func(t *testing.T, n int, capacity, lineRate, frameBits, bufferBits float64,
		propDelay int64, initialRate, q0, w, pm, ru, gi, gd float64,
		seed int64, bcnOn bool, loss float64, jitter int64) {
		cfg := Config{
			N:           n % 8, // keep accepted configs small enough to run
			Capacity:    capacity,
			LineRate:    lineRate,
			FrameBits:   frameBits,
			BufferBits:  bufferBits,
			PropDelay:   Nanos(propDelay),
			InitialRate: initialRate,
			BCN:         bcnOn,
			Q0:          q0,
			W:           w,
			Pm:          pm,
			Ru:          ru,
			Gi:          gi,
			Gd:          gd,
			Seed:        seed,
			MaxEvents:   200_000,
			Faults:      &faults.Config{Seed: seed, FeedbackLoss: loss, FeedbackJitterNs: jitter},
		}
		if err := cfg.Validate(); err != nil {
			return // rejected: fine
		}
		net, err := New(cfg)
		if err != nil {
			return // constructor may still reject (e.g. scheme knobs)
		}
		res, err := net.Run(1e-4)
		if err != nil {
			if res == nil {
				t.Fatalf("aborted run returned no partial result: %v", err)
			}
			return // budget abort with a partial result: fine
		}
		if math.IsNaN(res.MaxQueueBits) || math.IsNaN(res.Throughput) ||
			math.IsInf(res.MaxQueueBits, 0) || math.IsInf(res.Throughput, 0) {
			t.Fatalf("non-finite result from accepted config: %+v", res)
		}
	})
}

// FuzzSojournStats holds the selection-based sojournStats to a sort-based
// oracle: the p99 is the same order statistic, the mean is the
// delivery-order sum over n, and the samples are only permuted. The input
// is a little-endian float64 sequence; NaN (which no sojourn can be) is
// skipped.
func FuzzSojournStats(f *testing.F) {
	seq := func(n int, at func(i int) float64) []byte {
		b := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(at(i)))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seq(1, func(int) float64 { return 3e-6 }))
	f.Add(seq(200, func(int) float64 { return 1.2e-6 }))
	f.Add(seq(300, func(i int) float64 { return float64(i) * 1e-7 }))
	f.Add(seq(300, func(i int) float64 { return float64(300-i) * 1e-7 }))
	f.Add(seq(500, func(i int) float64 { return float64(i%3) * 1.2e-6 }))
	f.Add(seq(100, func(i int) float64 { return float64(i + 1) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v []float64
		for ; len(data) >= 8; data = data[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(x) {
				v = append(v, x)
			}
		}
		in := append([]float64(nil), v...)
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		mean, p99 := sojournStats(v)
		if len(in) == 0 {
			if mean != 0 || p99 != 0 {
				t.Fatalf("empty input: mean %v p99 %v", mean, p99)
			}
			return
		}
		sum := 0.0
		for _, x := range in {
			sum += x
		}
		if want := sum / float64(len(in)); math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("mean %v, want delivery-order %v", mean, want)
		}
		idx := max(int(math.Ceil(0.99*float64(len(in))))-1, 0)
		if p99 != sorted[idx] {
			t.Fatalf("p99 %v, want sorted[%d] = %v", p99, idx, sorted[idx])
		}
		sort.Float64s(v)
		for i := range v {
			if v[i] != sorted[i] {
				t.Fatalf("selection is not a permutation: sorted result differs at %d", i)
			}
		}
	})
}
