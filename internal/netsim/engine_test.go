package netsim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNanosConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1_500_000_000 {
		t.Errorf("FromSeconds(1.5) = %d", got)
	}
	if got := Nanos(2_000_000_000).Seconds(); got != 2 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestSimOrdering(t *testing.T) {
	s := &Sim{}
	var order []int
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.At(30, func() { order = append(order, 3) }))
	must(s.At(10, func() { order = append(order, 1) }))
	must(s.At(20, func() { order = append(order, 2) }))
	// Same-time events run in scheduling order.
	must(s.At(20, func() { order = append(order, 4) }))
	s.Run(100)
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 100 {
		t.Errorf("Now = %d, want clock advanced to until", s.Now())
	}
	if s.Processed() != 4 {
		t.Errorf("Processed = %d", s.Processed())
	}
}

func TestSimRunStopsAtUntil(t *testing.T) {
	s := &Sim{}
	ran := false
	if err := s.At(50, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	s.Run(40)
	if ran {
		t.Error("future event executed early")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run(60)
	if !ran {
		t.Error("event not executed")
	}
}

func TestSimSchedulingFromCallback(t *testing.T) {
	s := &Sim{}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			if err := s.After(10, tick); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	if err := s.At(0, tick); err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 1000 {
		t.Errorf("Now = %d", s.Now())
	}
}

func TestSimPastScheduling(t *testing.T) {
	s := &Sim{}
	if err := s.At(100, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if err := s.At(50, func() {}); !errors.Is(err, ErrNegativeDelay) {
		t.Errorf("past At err = %v", err)
	}
	if err := s.After(-1, func() {}); !errors.Is(err, ErrNegativeDelay) {
		t.Errorf("negative After err = %v", err)
	}
}

func TestSimStep(t *testing.T) {
	s := &Sim{}
	n := 0
	_ = s.At(5, func() { n++ })
	_ = s.At(10, func() { n++ })
	if !s.Step() || n != 1 || s.Now() != 5 {
		t.Errorf("first step: n=%d now=%d", n, s.Now())
	}
	if !s.Step() || n != 2 {
		t.Errorf("second step: n=%d", n)
	}
	if s.Step() {
		t.Error("empty step should return false")
	}
}

// TestQuickEventOrder: random schedules always execute in non-decreasing
// time order with FIFO tie-break, whether an event waits on the heap (At
// closures, and lane pushes that would break a lane's time order) or on a
// delay lane. Step and Pending follow a reference model that keeps the
// pending events in scheduling order and runs the earliest-scheduled of
// the earliest-timed ones; Run must finish in the stable-sort order.
func TestQuickEventOrder(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%64)
		rng := rand.New(rand.NewSource(seed))
		var got []int
		s := newSim(func(ev event) { got = append(got, int(ev.arg)) })
		type ref struct {
			at Nanos
			id int
		}
		var pending []ref // the model: scheduled, not yet run, in scheduling order
		next := 0
		schedule := func() bool {
			id := next
			next++
			// A narrow time range forces many same-instant ties, and lane
			// pushes often go back in time, taking the heap fallback.
			d := Nanos(rng.Int63n(20))
			var err error
			if rng.Intn(3) == 0 {
				err = s.At(s.Now()+d, func() { got = append(got, id) })
			} else {
				err = s.afterLane(rng.Intn(numLanes), d, event{kind: evSend, arg: int32(id)})
			}
			pending = append(pending, ref{s.Now() + d, id})
			return err == nil
		}
		for i := 0; i < n; i++ {
			if !schedule() {
				return false
			}
		}
		// Step through half the events, scheduling more as the clock
		// advances.
		for len(pending) > n/2 {
			if s.Pending() != len(pending) {
				return false
			}
			best := 0
			for j := range pending {
				if pending[j].at < pending[best].at {
					best = j
				}
			}
			want := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			got = got[:0]
			if !s.Step() || len(got) != 1 || got[0] != want.id || s.Now() != want.at {
				return false
			}
			if next < 2*n && rng.Intn(2) == 0 && !schedule() {
				return false
			}
		}
		if s.Pending() != len(pending) {
			return false
		}
		sort.SliceStable(pending, func(a, b int) bool { return pending[a].at < pending[b].at })
		got = got[:0]
		s.Run(1 << 20)
		if len(got) != len(pending) || s.Pending() != 0 || s.Step() {
			return false
		}
		for i := range got {
			if got[i] != pending[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAfterLaneFallback pins where afterLane puts an event: on its lane
// while the lane's times stay non-decreasing, on the heap otherwise, and
// nowhere (with ErrNegativeDelay) for a negative delay.
func TestAfterLaneFallback(t *testing.T) {
	s := newSim(func(event) {})
	for _, d := range []Nanos{5, 5, 9, 7, 9} {
		if err := s.afterLane(laneProp, d, event{kind: evSend}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.lanes[laneProp].len(); got != 4 {
		t.Errorf("lane holds %d events, want 4", got)
	}
	if got := len(s.events); got != 1 || s.events[0].at != 7 {
		t.Errorf("heap = %+v, want the one event at 7", s.events)
	}
	if err := s.afterLane(laneDepart, -1, event{kind: evDepart}); !errors.Is(err, ErrNegativeDelay) {
		t.Errorf("negative delay err = %v", err)
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", s.Pending())
	}
}

// TestEventSize pins the event value at 32 bytes: the heap and the lanes
// move events by value, so a field that grows it slows every event.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("event is %d bytes, want 32", got)
	}
}
