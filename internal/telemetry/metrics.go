package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry can hold.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets is a latency-oriented default bucket layout in seconds,
// spanning microsecond solver steps to minute-scale sweep jobs.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous. It panics on a non-positive start, a factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: ExpBuckets(%g, %g, %d): invalid", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Registry holds named metric families. All methods are safe for
// concurrent use. A nil *Registry is valid and inert: every constructor
// on it returns a nil instrument whose methods no-op, so instrumented
// code never needs to branch on whether telemetry is enabled.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its per-label-value children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64      // histogram families only
	valueFn func() float64 // gauge-func families only

	mu       sync.RWMutex
	children map[string]child // keyed by joined label values
}

type child interface{}

// labelKey joins label values with an unprintable separator so distinct
// value tuples cannot collide.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// register returns the family for name, creating it if absent. The
// shape (kind, label names, bucket count) of a re-registration must
// match the original; a mismatch panics, because it is a programming
// error that would silently merge unrelated series.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if err := ValidateMetricName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := ValidateLabelName(l); err != nil {
			panic(err)
		}
	}
	if kind == KindHistogram {
		buckets = normalizeBuckets(buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.kind != kind || !equalStrings(f.labels, labels) || len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// normalizeBuckets sorts, dedups, and strips non-finite bounds; the
// implicit +Inf bucket is always present and never stored.
func normalizeBuckets(in []float64) []float64 {
	out := make([]float64, 0, len(in))
	for _, b := range in {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// child fetches or creates the child for the given label values.
func (f *family) child(values []string, make func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = make()
	f.children[key] = c
	return c
}

// --- Counter ---

// Counter is a monotonically increasing uint64. A nil *Counter is valid
// and all its methods no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the unlabeled counter named name, registering it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, KindCounter, nil, nil)
	return f.child(nil, func() child { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family with one child per label-value tuple.
type CounterVec struct {
	f *family
}

// CounterVec registers a labeled counter family. Returns nil on a nil
// registry.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the child counter for the given label values (nil on a
// nil vec).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() child { return new(Counter) }).(*Counter)
}

// --- Gauge ---

// Gauge is a float64 value that may go up or down. A nil *Gauge is
// valid and all its methods no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (which may be negative) via a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the unlabeled gauge named name. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, KindGauge, nil, nil)
	return f.child(nil, func() child { return new(Gauge) }).(*Gauge)
}

// GaugeVec is a gauge family with one child per label-value tuple.
type GaugeVec struct {
	f *family
}

// GaugeVec registers a labeled gauge family. Returns nil on a nil
// registry.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: GaugeVec %q needs at least one label", name))
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the child gauge for the given label values (nil on a nil
// vec).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() child { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the way to expose live state (channel depths, clock-derived
// uptime) without a writer goroutine. fn must be safe for concurrent
// use. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	if fn == nil {
		panic(fmt.Sprintf("telemetry: GaugeFunc %q with nil fn", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ValidateMetricName(name); err != nil {
		panic(err)
	}
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as GaugeFunc", name))
	}
	r.families[name] = &family{name: name, help: help, kind: KindGauge, valueFn: fn}
}

// --- Histogram ---

// Histogram is a cumulative-bucket distribution over float64
// observations (Prometheus "le" semantics: bucket i counts v <=
// bound[i], with an implicit +Inf bucket). A nil *Histogram is valid
// and all its methods no-op. NaN observations are dropped.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Histogram returns the unlabeled histogram named name with the given
// bucket upper bounds (DefBuckets when nil). Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, KindHistogram, nil, buckets)
	return f.child(nil, func() child { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with one child per label-value
// tuple.
type HistogramVec struct {
	f *family
}

// HistogramVec registers a labeled histogram family (DefBuckets when
// buckets is nil). Returns nil on a nil registry.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: HistogramVec %q needs at least one label", name))
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the child histogram for the given label values (nil on a
// nil vec).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	f := v.f
	return f.child(values, func() child { return newHistogram(f.buckets) }).(*Histogram)
}
