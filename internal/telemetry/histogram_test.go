package telemetry

import (
	"math"
	"testing"
)

// Histogram bucket edge cases: empty histogram, single sample, samples
// landing in the +Inf bucket, and degenerate bucket layouts.

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e_seconds", "", []float64{1, 2})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("fresh histogram not empty")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("s_seconds", "", []float64{1, 2, 4})
	h.Observe(1.5)
	if h.Count() != 1 || h.Sum() != 1.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	// The single sample is in (1,2]: the cumulative counts step from 0
	// to 1 at the le="2" bucket.
	assertBuckets(t, r, "s_seconds", []uint64{0, 1, 1, 1})
}

func TestHistogramInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("i_seconds", "", []float64{1, 2})
	h.Observe(100) // beyond the last finite bound
	h.Observe(math.Inf(1))
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	snap := r.Snapshot()
	f, _ := snap.Get("i_seconds")
	bks := f.Series[0].Buckets
	if bks[len(bks)-1].LE != "+Inf" || bks[len(bks)-1].Count != 2 {
		t.Fatalf("+Inf bucket = %+v", bks[len(bks)-1])
	}
	if bks[0].Count != 0 || bks[1].Count != 0 {
		t.Fatalf("finite buckets should be empty: %+v", bks)
	}
}

func TestHistogramExplicitInfBoundStripped(t *testing.T) {
	r := NewRegistry()
	// +Inf and NaN bounds are stripped (the +Inf bucket is implicit);
	// duplicates collapse; order is normalized.
	h := r.Histogram("n_seconds", "", []float64{2, math.Inf(1), 1, 2, math.NaN()})
	if len(h.bounds) != 2 || h.bounds[0] != 1 || h.bounds[1] != 2 {
		t.Fatalf("bounds = %v, want [1 2]", h.bounds)
	}
}

func TestHistogramOnlyInfBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("only_inf_seconds", "", []float64{math.Inf(1)})
	h.Observe(3)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// The +Inf bound is stripped, so the +Inf bucket is the only one.
	assertBuckets(t, r, "only_inf_seconds", []uint64{1})
}

func TestHistogramNegativeFirstBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("neg_units", "", []float64{-1, 1})
	h.Observe(-5)
	// A value below a non-positive first bound lands in that bucket.
	assertBuckets(t, r, "neg_units", []uint64{1, 1, 1})
}

func TestHistogramNaNDropped(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nan_seconds", "", []float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("NaN observation recorded")
	}
}

func TestHistogramVecSharedBounds(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("job_seconds", "", []float64{1, 2}, "kind")
	hv.With("solve").Observe(0.5)
	hv.With("netsim").Observe(3)
	snap := r.Snapshot()
	f, ok := snap.Get("job_seconds")
	if !ok || len(f.Series) != 2 {
		t.Fatalf("want 2 series: %+v", f)
	}
	for _, s := range f.Series {
		if len(s.Buckets) != 3 {
			t.Fatalf("series %v has %d buckets, want 3", s.LabelValues, len(s.Buckets))
		}
	}
}

// assertBuckets checks the cumulative bucket counts of the unlabeled
// histogram name in a snapshot of r, +Inf last.
func assertBuckets(t *testing.T, r *Registry, name string, want []uint64) {
	t.Helper()
	f, ok := r.Snapshot().Get(name)
	if !ok || len(f.Series) != 1 {
		t.Fatalf("%s: want one series: %+v", name, f)
	}
	bks := f.Series[0].Buckets
	if len(bks) != len(want) || bks[len(bks)-1].LE != "+Inf" {
		t.Fatalf("%s: buckets %+v, want %d ending in +Inf", name, bks, len(want))
	}
	for i, b := range bks {
		if b.Count != want[i] {
			t.Fatalf("%s: bucket le=%s count %d, want %d (all %+v)", name, b.LE, b.Count, want[i], bks)
		}
	}
}
