package netsim

import (
	"reflect"
	"testing"

	"bcnphase/internal/telemetry"
)

func TestRunMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	cfg := testConfig()
	cfg.Metrics = m
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs.Value() != 1 {
		t.Fatalf("runs = %d, want 1", m.Runs.Value())
	}
	if got := m.Events.Value(); got != res.Events {
		t.Fatalf("live event count %d != result events %d", got, res.Events)
	}
	if res.NegMessages > 0 && m.Feedback.With("neg").Value() != res.NegMessages {
		t.Fatalf("neg feedback %d != %d", m.Feedback.With("neg").Value(), res.NegMessages)
	}
	if res.PosMessages > 0 && m.Feedback.With("pos").Value() != res.PosMessages {
		t.Fatalf("pos feedback %d != %d", m.Feedback.With("pos").Value(), res.PosMessages)
	}
	if m.Sojourn.Count() == 0 {
		t.Fatalf("no sojourn samples recorded")
	}
	if m.SimSeconds.Value() != res.SimSeconds {
		t.Fatalf("sim seconds %v != %v", m.SimSeconds.Value(), res.SimSeconds)
	}

	// Determinism contract: an identical run without metrics must
	// produce the same physics.
	cfg2 := testConfig()
	net2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := net2.Run(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Events != res.Events || res2.DeliveredBits != res.DeliveredBits ||
		res2.NegMessages != res.NegMessages || res2.MaxQueueBits != res.MaxQueueBits {
		t.Fatalf("metrics perturbed the run: %+v vs %+v", res2, res)
	}
}

func TestNetsimNewMetricsNil(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
}

// TestRunMetricsSojournOrder: the sojourn histogram folds the samples in
// delivery order, so its float sum is the plain in-order sum however the
// p99 selection reorders them afterwards, and attaching Metrics leaves
// the Result unchanged.
func TestRunMetricsSojournOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	cfg := testConfig()
	cfg.Metrics = m
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Metrics event counter chains this monitor, which copies each
	// sojourn right after the departure that recorded it.
	var inOrder []float64
	net.sim.Monitor = func(Nanos) error {
		inOrder = append(inOrder, net.sojourns[len(inOrder):]...)
		return nil
	}
	res, err := net.Run(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inOrder) == 0 || m.Sojourn.Count() != uint64(len(inOrder)) {
		t.Fatalf("histogram holds %d samples, run delivered %d", m.Sojourn.Count(), len(inOrder))
	}
	sum := 0.0
	for _, s := range inOrder {
		sum += s
	}
	if got := m.Sojourn.Sum(); got != sum {
		t.Errorf("netsim_sojourn_seconds sum = %v, want delivery-order sum %v", got, sum)
	}

	plain, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("Metrics changed the Result:\n got  %+v\n want %+v", res, want)
	}
}
