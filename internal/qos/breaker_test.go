package qos

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bcnphase/internal/telemetry"
)

// breakerStep is one operation on key "k" of a table-driven breaker
// lifecycle, with the full observable state expected after it.
type breakerStep struct {
	op   string        // "allow", "fail", "ok", "release", "quarantine", "wait"
	want bool          // Allow's or Quarantine's result
	hint time.Duration // Allow's retry hint

	state string    // Snapshot state
	open  bool      // Open
	gauge float64   // state gauge
	trans [4]uint64 // transitions to open, half-open, closed, quarantined
}

func TestBreakerLifecycle(t *testing.T) {
	const cooldown = time.Second
	cases := []struct {
		name      string
		threshold int
		steps     []breakerStep
	}{
		{"trip-probe-recover", 2, []breakerStep{
			{op: "allow", want: true, state: "closed"},
			{op: "fail", state: "closed"},
			{op: "allow", want: true, state: "closed"},
			// closed → open at the threshold.
			{op: "fail", state: "open", open: true, gauge: BreakerOpen, trans: [4]uint64{1, 0, 0, 0}},
			{op: "allow", hint: cooldown, state: "open", open: true, gauge: BreakerOpen, trans: [4]uint64{1, 0, 0, 0}},
			// open → half-open after the cooldown; exactly one probe.
			{op: "wait", state: "half-open", gauge: BreakerOpen, trans: [4]uint64{1, 0, 0, 0}},
			{op: "allow", want: true, state: "half-open", open: true, gauge: BreakerHalfOpen, trans: [4]uint64{1, 1, 0, 0}},
			{op: "allow", hint: cooldown / 4, state: "half-open", open: true, gauge: BreakerHalfOpen, trans: [4]uint64{1, 1, 0, 0}},
			// A failed probe re-opens the key.
			{op: "fail", state: "open", open: true, gauge: BreakerOpen, trans: [4]uint64{2, 1, 0, 0}},
			{op: "wait", state: "half-open", gauge: BreakerOpen, trans: [4]uint64{2, 1, 0, 0}},
			{op: "allow", want: true, state: "half-open", open: true, gauge: BreakerHalfOpen, trans: [4]uint64{2, 2, 0, 0}},
			// Release keeps the key half-open and frees the probe slot.
			{op: "release", state: "half-open", gauge: BreakerOpen, trans: [4]uint64{2, 2, 0, 0}},
			{op: "allow", want: true, state: "half-open", open: true, gauge: BreakerHalfOpen, trans: [4]uint64{2, 3, 0, 0}},
			// A successful probe closes it.
			{op: "ok", state: "closed", trans: [4]uint64{2, 3, 1, 0}},
			{op: "allow", want: true, state: "closed", trans: [4]uint64{2, 3, 1, 0}},
			{op: "fail", state: "closed", trans: [4]uint64{2, 3, 1, 0}},
			{op: "ok", state: "closed", trans: [4]uint64{2, 3, 1, 0}},
			{op: "fail", state: "closed", trans: [4]uint64{2, 3, 1, 0}},
		}},
		{"late-success-closes-open", 2, []breakerStep{
			{op: "fail", state: "closed"},
			{op: "fail", state: "open", open: true, gauge: BreakerOpen, trans: [4]uint64{1, 0, 0, 0}},
			// Work admitted before the trip finishes fine: that closes it.
			{op: "ok", state: "closed", trans: [4]uint64{1, 0, 1, 0}},
			{op: "allow", want: true, state: "closed", trans: [4]uint64{1, 0, 1, 0}},
		}},
		{"disabled", 0, []breakerStep{
			{op: "fail", state: "closed"},
			{op: "fail", state: "closed"},
			{op: "fail", state: "closed"},
			{op: "allow", want: true, state: "closed"},
			{op: "release", state: "closed"},
			// Quarantine holds even when the breaker is disabled.
			{op: "quarantine", want: true, state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{0, 0, 0, 1}},
			{op: "allow", hint: time.Hour, state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{0, 0, 0, 1}},
		}},
		{"quarantine-is-terminal", 2, []breakerStep{
			{op: "fail", state: "closed"},
			{op: "fail", state: "open", open: true, gauge: BreakerOpen, trans: [4]uint64{1, 0, 0, 0}},
			{op: "wait", state: "half-open", gauge: BreakerOpen, trans: [4]uint64{1, 0, 0, 0}},
			{op: "allow", want: true, state: "half-open", open: true, gauge: BreakerHalfOpen, trans: [4]uint64{1, 1, 0, 0}},
			{op: "quarantine", want: true, state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
			{op: "wait", state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
			{op: "allow", hint: time.Hour, state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
			{op: "ok", state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
			{op: "fail", state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
			{op: "release", state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
			{op: "quarantine", state: "quarantined", open: true, gauge: BreakerQuarantined, trans: [4]uint64{1, 1, 0, 1}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			reg := telemetry.NewRegistry()
			trans := reg.CounterVec("breaker_transitions_total", "test", "state")
			gauges := reg.GaugeVec("breaker_state", "test", "key")
			b := NewBreaker(c.threshold, cooldown, func() time.Time { return now }, trans, gauges, "k")
			for i, s := range c.steps {
				var got bool
				var hint time.Duration
				switch s.op {
				case "allow":
					got, hint = b.Allow("k")
				case "fail":
					b.Failure("k")
				case "ok":
					b.Success("k")
				case "release":
					b.Release("k")
				case "quarantine":
					got = b.Quarantine("k")
				case "wait":
					now = now.Add(cooldown + time.Millisecond)
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				snap := b.Snapshot()
				counts := [4]uint64{trans.With("open").Value(), trans.With("half-open").Value(),
					trans.With("closed").Value(), trans.With("quarantined").Value()}
				if got != s.want || hint != s.hint || len(snap) != 1 || snap[0].State != s.state ||
					b.Open("k") != s.open || gauges.With("k").Value() != s.gauge || counts != s.trans {
					t.Fatalf("step %d (%s): got %v hint %v snapshot %+v open %v gauge %v transitions %v; want %+v",
						i, s.op, got, hint, snap, b.Open("k"), gauges.With("k").Value(), counts, s)
				}
				if q := s.state == "quarantined"; b.Quarantined("k") != q {
					t.Fatalf("step %d (%s): Quarantined = %v, want %v", i, s.op, !q, q)
				}
			}
		})
	}
}

func TestBreakerSnapshotOrderIsFirstSeen(t *testing.T) {
	b := NewBreaker(3, time.Second, nil, nil, nil, "w2", "w0", "w1")
	b.Failure("r9")
	b.Allow("never-failed") // Allow and Success do not register keys
	b.Success("never-failed")
	b.Failure("r1")
	b.Quarantine("q")
	b.Failure("r9")
	want := []string{"w2", "w0", "w1", "r9", "r1", "q"}
	for i := 0; i < 20; i++ {
		var got []string
		for _, st := range b.Snapshot() {
			got = append(got, st.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d order %v, want %v", i, got, want)
		}
	}
	if st := b.Snapshot()[3]; st.Consecutive != 2 || st.State != "closed" {
		t.Errorf("r9 = %+v, want closed with 2 consecutive failures", st)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	trans := reg.CounterVec("breaker_transitions_total", "test", "state")
	keys := []string{"a", "b", "c"}
	b := NewBreaker(2, time.Microsecond, nil, trans, reg.GaugeVec("breaker_state", "test", "key"), keys...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(g+i)%len(keys)]
				if ok, _ := b.Allow(k); !ok {
					continue
				}
				switch (g * i) % 3 {
				case 0:
					b.Failure(k)
				case 1:
					b.Success(k)
				default:
					b.Release(k)
				}
				if i%100 == 0 {
					b.Open(k)
					b.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var trips uint64
	for _, st := range b.Snapshot() {
		trips += st.Trips
	}
	if opens := trans.With("open").Value(); trips != opens || opens == 0 {
		t.Errorf("snapshot trips %d, open transitions %d (want equal and nonzero)", trips, opens)
	}
}

func TestBreakerHotPathAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBreaker(3, time.Second, nil, reg.CounterVec("breaker_transitions_total", "test", "state"),
		reg.GaugeVec("breaker_state", "test", "key"), "http://w0", "http://w1")
	region := fmt.Sprintf("solve:gi=%d", 2)
	b.Failure(region) // registered, closed
	for _, k := range []string{"http://w0", region, "unseen"} {
		if n := testing.AllocsPerRun(1000, func() {
			b.Allow(k)
			b.Success(k)
		}); n != 0 {
			t.Errorf("Allow+Success on %q allocates %v times, want 0", k, n)
		}
	}
}
