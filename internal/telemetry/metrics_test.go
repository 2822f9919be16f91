package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	cv := r.CounterVec("cv_total", "", "k")
	gv := r.GaugeVec("gv", "", "k")
	hv := r.HistogramVec("hv_seconds", "", nil, "k")
	r.GaugeFunc("gf", "", func() float64 { return 1 })

	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	cv.With("a").Inc()
	gv.With("a").Set(2)
	hv.With("a").Observe(1)

	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments recorded state")
	}
	snap := r.Snapshot()
	if len(snap.Families) != 0 {
		t.Fatalf("nil registry snapshot has %d families", len(snap.Families))
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("jobs_total", "jobs"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Add(-2.5)
	g.Add(1)
	if got := g.Value(); got != 8.5 {
		t.Fatalf("gauge = %v, want 8.5", got)
	}
}

func TestVecChildrenAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("outcomes_total", "by outcome", "outcome")
	cv.With("spiral").Add(2)
	cv.With("converged").Inc()
	if cv.With("spiral") != cv.With("spiral") {
		t.Fatalf("With not stable")
	}
	snap := r.Snapshot()
	f, ok := snap.Get("outcomes_total")
	if !ok || len(f.Series) != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
	// Sorted by label value: converged < spiral.
	if f.Series[0].LabelValues[0] != "converged" || f.Series[0].Value != 1 {
		t.Fatalf("series[0] = %+v", f.Series[0])
	}
	if f.Series[1].LabelValues[0] != "spiral" || f.Series[1].Value != 2 {
		t.Fatalf("series[1] = %+v", f.Series[1])
	}
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	for _, fn := range []func(){
		func() { r.Gauge("x_total", "") },
		func() { r.CounterVec("x_total", "", "k") },
		func() { r.Counter("bad name", "") },
		func() { r.CounterVec("y_total", "", "bad-label") },
		func() { r.CounterVec("z_total", "", "__reserved") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 0.0
	r.GaugeFunc("live_depth", "live", func() float64 { return v })
	v = 42
	snap := r.Snapshot()
	if got := snap.Value("live_depth"); got != 42 {
		t.Fatalf("gauge func = %v, want 42", got)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "live_depth 42\n") {
		t.Fatalf("prometheus output missing gauge func:\n%s", buf.String())
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "count of a").Add(3)
	r.GaugeVec("b", "gauge b", "node").With(`we"ird\`).Set(1.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	// Binary-exact sample values so the rendered _sum is exact.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)
	// Empty family must still emit HELP/TYPE so scrapers can assert
	// presence before traffic arrives.
	r.CounterVec("empty_total", "no children yet", "k")

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP a_total count of a\n# TYPE a_total counter\na_total 3\n",
		"# TYPE b gauge\n" + `b{node="we\"ird\\"} 1.5` + "\n",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.5625\n",
		"lat_seconds_count 3\n",
		"# HELP empty_total no children yet\n# TYPE empty_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONSafe(t *testing.T) {
	r := NewRegistry()
	r.Gauge("weird", "").Set(math.Inf(1))
	r.GaugeFunc("nan", "", func() float64 { return math.NaN() })
	h := r.Histogram("h_seconds", "", []float64{1})
	h.Observe(math.Inf(1)) // lands in +Inf bucket, sum becomes +Inf
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot not JSON-safe: %v", err)
	}
	if !strings.Contains(string(raw), `"le":"+Inf"`) {
		t.Fatalf("snapshot lost +Inf bucket: %s", raw)
	}
}

func TestValidateNames(t *testing.T) {
	good := []string{"a", "A_b:c", "_x", "x9", "ns_subsystem_total"}
	for _, n := range good {
		if err := ValidateMetricName(n); err != nil {
			t.Errorf("ValidateMetricName(%q) = %v", n, err)
		}
	}
	bad := []string{"", "9x", "a-b", "a b", "a\x00", "é"}
	for _, n := range bad {
		if err := ValidateMetricName(n); err == nil {
			t.Errorf("ValidateMetricName(%q) accepted", n)
		}
	}
	if err := ValidateLabelName("a:b"); err == nil {
		t.Errorf("label names must not allow colons")
	}
	if err := ValidateLabelName("__name__"); err == nil {
		t.Errorf("reserved label accepted")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-3, 10, 4)
	want := []float64{1e-3, 1e-2, 1e-1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for invalid args")
		}
	}()
	ExpBuckets(-1, 2, 3)
}
