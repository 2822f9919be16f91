package netsim_test

import (
	"testing"

	"bcnphase/internal/netsim"
)

// maxAllocsPerEvent gates the event core's steady state: a run may
// allocate while its heap, queues and recorder grow, and once per
// generated feedback message, but never per event.
const maxAllocsPerEvent = 0.3

// TestRunAllocsPerEvent measures heap allocations over one New+Run of the
// paper dumbbell and of a multihop run, per processed event.
func TestRunAllocsPerEvent(t *testing.T) {
	t.Run("dumbbell", func(t *testing.T) {
		cfg := paperDumbbell(t)
		var events uint64
		allocs := testing.AllocsPerRun(1, func() {
			n, err := netsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := n.Run(0.03)
			if err != nil {
				t.Fatal(err)
			}
			events = res.Events
		})
		checkAllocsPerEvent(t, allocs, events)
	})
	t.Run("multihop", func(t *testing.T) {
		cfg := goldenMultihopCases[1].cfg()
		var events uint64
		allocs := testing.AllocsPerRun(1, func() {
			n, err := netsim.NewMultihop(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := n.Run(0.03)
			if err != nil {
				t.Fatal(err)
			}
			events = res.Events
		})
		checkAllocsPerEvent(t, allocs, events)
	})
}

func checkAllocsPerEvent(t *testing.T, allocs float64, events uint64) {
	t.Helper()
	if events == 0 {
		t.Fatal("run processed no events")
	}
	per := allocs / float64(events)
	t.Logf("%.0f allocs over %d events = %.4f per event", allocs, events, per)
	if per > maxAllocsPerEvent {
		t.Errorf("allocs per event = %.3f, want <= %v", per, maxAllocsPerEvent)
	}
}
