package netsim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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
	s := NewSim()
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
	s := NewSim()
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
	s := NewSim()
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
	s := NewSim()
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
	s := NewSim()
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
// time order with FIFO tie-break.
func TestQuickEventOrder(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%64)
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		times := make([]Nanos, n)
		var got []int
		for i := 0; i < n; i++ {
			// A narrow time range forces many same-instant ties.
			times[i] = Nanos(rng.Int63n(20))
			if err := s.At(times[i], func() { got = append(got, i) }); err != nil {
				return false
			}
		}
		s.Run(2000)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
