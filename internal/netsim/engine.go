// Package netsim is a deterministic discrete-event simulator for the
// single-bottleneck Data Center Ethernet scenario the paper models:
// N homogeneous sources behind edge switches share one core-switch output
// queue with finite buffer, BCN congestion control (internal/bcn) and
// optional 802.3x PAUSE. It is the packet-level substrate used to validate
// the fluid model — the paper's own experiments ran on testbeds and
// simulators we do not have, so this package is the substituted
// equivalent.
//
// # Determinism contract
//
// Two runs with the same Config produce identical results: event
// timestamps are integer nanoseconds, same-time events run in scheduling
// order (FIFO tie-break), and every random decision — source start-offset
// desynchronization and any injected fault (Config.Faults) — is drawn
// from seeded generators derived from Config.Seed and Faults.Seed.
// A zero seed selects a fixed default seed rather than disabling
// randomization, so the zero Config still names exactly one reproducible
// run; set an explicit nonzero seed to get a different draw. Wall-clock
// and context budgets (Config.MaxWallClock, RunContext cancellation)
// are the only nondeterministic inputs, and they only decide where a run
// stops early — never how the simulated system behaves up to that point.
//
// # Event core
//
// Every pending event waits in one of three places: a binary min-heap
// of event values, or one of two FIFO delay lanes beside it. The lanes
// hold events the network schedules at non-decreasing times: lane 0
// the fixed-delay link crossings (frame arrivals, the multihop
// edge→core hop, unjittered feedback), lane 1 the dumbbell's service
// completions. A push that would put a lane out of time order goes to
// the heap instead. Every event is stamped at scheduling time with a
// sequence number, and the next event to run is the least of the heap
// top and the lane heads under (at, seq): the timestamp, then that
// sequence number. Because seq is unique the order is total, so the
// sequence of executed events — and with it every Result field and
// every Config.Trace byte — depends only on the order in which events
// are scheduled, never on where they wait. That total order is the
// determinism contract of the engine: a change that schedules the same
// events in the same order must reproduce a run exactly.
//
// The data path (source sends, frame arrivals, queue departures and
// feedback deliveries) uses typed 32-byte events: a kind plus a source,
// queue or wire-slot index, handed by value to the owning network's
// dispatch switch. Encoded feedback frames wait in a recycled slot
// table and switch queues are ring buffers, so a run allocates nothing
// per event once its buffers have grown. The evFunc kind runs a closure
// parked in the Sim's own slot table; it serves Sim.At/After and the
// rare control events (recorder ticks, XOFF/XON, pause-quanta expiry).
package netsim

import (
	"errors"
	"fmt"
	"math"

	"bcnphase/internal/bcn"
)

// Nanos is a simulation timestamp in integer nanoseconds.
type Nanos int64

// Seconds converts a timestamp to float seconds.
func (n Nanos) Seconds() float64 { return float64(n) / 1e9 }

// FromSeconds converts float seconds to a timestamp, rounding to the
// nearest nanosecond and saturating at the representable range (an
// out-of-range float-to-int conversion is implementation-defined in Go,
// and extreme Config values must degrade to a clamped horizon, not to a
// negative timestamp).
func FromSeconds(s float64) Nanos {
	ns := math.Round(s * 1e9)
	switch {
	case math.IsNaN(ns):
		return 0
	case ns >= math.MaxInt64:
		return Nanos(math.MaxInt64)
	case ns <= math.MinInt64:
		return Nanos(math.MinInt64)
	}
	return Nanos(ns)
}

// ErrNegativeDelay is returned when scheduling into the past.
var ErrNegativeDelay = errors.New("netsim: negative delay")

// evKind selects how an event runs. evFunc calls a parked closure;
// every other kind is a data-path event that the Sim hands, by value, to
// the owning network's dispatch switch, so the per-frame hot path never
// allocates a closure.
type evKind uint8

const (
	// evFunc runs the closure parked in slot arg: Sim.At/After and the
	// rare control events (recorder tick, XOFF/XON, pause-quanta expiry).
	evFunc evKind = iota
	// evSend: source arg transmits its next frame.
	evSend
	// evArrive: a frame from source arg, carrying rate-regulator tag
	// tag, reaches the first switch queue.
	evArrive
	// evForward: a frame from source arg, carrying tag, crosses the
	// multihop edge→core link.
	evForward
	// evDepart: the head-of-line frame of queue arg (always 0 on the
	// dumbbell) finishes transmission.
	evDepart
	// evFeedback: the encoded feedback frame in wire slot arg reaches
	// its source.
	evFeedback
)

// event is one scheduled occurrence, 32 bytes. The heap and the lanes
// hold events, not pointers, so scheduling allocates nothing once they
// have grown to their working size.
type event struct {
	at   Nanos
	seq  uint64
	tag  bcn.CPID // evArrive, evForward: the frame's congestion-point tag
	arg  int32    // source index, queue index, wire slot or closure slot
	kind evKind
}

// before is the execution order: time, then scheduling sequence. seq is
// unique, so this is a total order and the pop sequence does not depend
// on where an event waits.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Delay lanes: FIFO queues beside the heap for events a network
// schedules at non-decreasing times.
const (
	// laneProp carries fixed-delay link crossings: evArrive, evForward
	// and unjittered evFeedback.
	laneProp = iota
	// laneDepart carries the dumbbell's evDepart service completions.
	laneDepart
	numLanes
)

// fromHeap is the source index next reports for the heap top.
const fromHeap = numLanes

// Sim is a single-threaded discrete-event engine. Events scheduled for the
// same instant run in scheduling order (FIFO tie-break), which keeps runs
// deterministic. The zero value is an engine at time zero that runs
// closures only.
type Sim struct {
	now       Nanos
	seq       uint64
	events    []event               // binary min-heap under before
	lanes     [numLanes]ring[event] // FIFO delay lanes, each in (at, seq) order
	processed uint64

	// fns parks the closures of pending evFunc events.
	fns slots[func()]

	// dispatch runs every event whose kind is not evFunc; the network
	// that owns the Sim installs it.
	dispatch func(event)

	// Monitor, when non-nil, observes every event timestamp right after
	// the event's callback ran inside RunChecked (and Run). A non-nil
	// return stops the run immediately with the clock left at the
	// event's time; the error is returned by RunChecked. The runtime
	// invariant guards hook in here to verify event-queue ordering and
	// to surface Strict-policy violations raised inside event callbacks
	// without waiting for the next budget check.
	Monitor func(at Nanos) error
}

// newSim returns an engine whose typed events go to dispatch.
func newSim(dispatch func(event)) *Sim { return &Sim{dispatch: dispatch} }

// Now returns the current simulation time.
func (s *Sim) Now() Nanos { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending returns the number of queued events.
func (s *Sim) Pending() int {
	n := len(s.events)
	for i := range s.lanes {
		n += s.lanes[i].len()
	}
	return n
}

// At schedules fn at absolute time t (>= Now).
func (s *Sim) At(t Nanos, fn func()) error {
	if t < s.now {
		return fmt.Errorf("%w: t=%d < now=%d", ErrNegativeDelay, t, s.now)
	}
	return s.schedule(t, event{kind: evFunc, arg: s.fns.put(fn)})
}

// After schedules fn a delay d from now.
func (s *Sim) After(d Nanos, fn func()) error {
	if d < 0 {
		return fmt.Errorf("%w: d=%d", ErrNegativeDelay, d)
	}
	return s.At(s.now+d, fn)
}

// after schedules ev a delay d from now.
func (s *Sim) after(d Nanos, ev event) error {
	if d < 0 {
		return fmt.Errorf("%w: d=%d", ErrNegativeDelay, d)
	}
	return s.schedule(s.now+d, ev)
}

// afterLane schedules ev a delay d from now on lane l when that keeps
// the lane's times non-decreasing, and on the heap otherwise. Either
// way ev gets the next sequence number, so the execution order is the
// one after would give.
func (s *Sim) afterLane(l int, d Nanos, ev event) error {
	t := s.now + d
	q := &s.lanes[l]
	if d < 0 || t < s.now || q.len() > 0 && t < q.back().at {
		return s.after(d, ev)
	}
	s.seq++
	ev.at, ev.seq = t, s.seq
	q.push(ev)
	return nil
}

// schedule stamps ev with time t and the next sequence number and sifts
// it up the heap.
func (s *Sim) schedule(t Nanos, ev event) error {
	if t < s.now {
		return fmt.Errorf("%w: t=%d < now=%d", ErrNegativeDelay, t, s.now)
	}
	s.seq++
	ev.at, ev.seq = t, s.seq
	s.events = append(s.events, ev)
	h := s.events
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !before(&ev, &h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
	return nil
}

// next returns where the earliest pending event waits (a lane index or
// fromHeap) and its time; ok is false when nothing is pending. Every lane
// is sorted by (at, seq), so the minimum is among the heap top and the
// lane heads.
func (s *Sim) next() (src int, at Nanos, ok bool) {
	var top *event
	src = fromHeap
	if len(s.events) > 0 {
		top = &s.events[0]
	}
	for i := range s.lanes {
		if q := &s.lanes[i]; q.len() > 0 {
			if h := q.front(); top == nil || before(h, top) {
				top, src = h, i
			}
		}
	}
	if top == nil {
		return 0, 0, false
	}
	return src, top.at, true
}

// pop removes and returns the heap top. The heap must be non-empty.
func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.events = h
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(&h[r], &h[c]) {
				c = r
			}
			if !before(&h[c], &last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// exec advances the clock to ev and runs it.
func (s *Sim) exec(ev event) {
	s.now = ev.at
	s.processed++
	if ev.kind == evFunc {
		s.fns.take(ev.arg)()
	} else {
		s.dispatch(ev)
	}
}

// Run executes events in order until the queue is empty or the next event
// is after `until`; the clock finishes at min(until, last event time)
// advanced to `until`.
func (s *Sim) Run(until Nanos) { _ = s.RunChecked(until, 0, nil) }

// RunChecked is Run with a cooperative abort hook: every `every` processed
// events (and once before the first) it calls check, and a non-nil check
// error stops the run immediately with the clock left at the last executed
// event. It returns that error, or nil when the run completed. A zero
// `every` or nil check degenerates to Run. The hook is how runaway
// scenarios are bounded (context cancellation, event and wall-clock
// budgets) without sacrificing determinism of the simulated system.
func (s *Sim) RunChecked(until Nanos, every uint64, check func() error) error {
	if check != nil && every > 0 {
		if err := check(); err != nil {
			return err
		}
	}
	for {
		src, at, ok := s.next()
		if !ok || at > until {
			break
		}
		var ev event
		if src == fromHeap {
			ev = s.pop()
		} else {
			ev = s.lanes[src].pop()
		}
		s.exec(ev)
		if s.Monitor != nil {
			if err := s.Monitor(ev.at); err != nil {
				return err
			}
		}
		if check != nil && every > 0 && s.processed%every == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// Step executes exactly one event if any is pending, returning whether an
// event ran.
func (s *Sim) Step() bool {
	src, _, ok := s.next()
	if !ok {
		return false
	}
	if src == fromHeap {
		s.exec(s.pop())
	} else {
		s.exec(s.lanes[src].pop())
	}
	return true
}
