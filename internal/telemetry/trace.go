package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a recorded span; 0 is "no span / no parent".
type SpanID uint64

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one completed trace span.
type Span struct {
	ID       SpanID `json:"id"`
	Parent   SpanID `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_unix_ns"`
	Duration int64  `json:"duration_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Tracer records completed spans into a fixed-capacity ring buffer:
// recording never blocks and never grows, and once the ring wraps the
// oldest spans are dropped (counted in Dropped). A nil *Tracer is valid
// and records nothing.
type Tracer struct {
	nextID atomic.Uint64
	now    func() time.Time

	mu      sync.Mutex
	ring    []Span
	head    int // next write position
	n       int // spans currently held
	dropped uint64
}

// NewTracer returns a tracer holding at most capacity completed spans
// (a non-positive capacity defaults to 4096). now == nil uses time.Now.
func NewTracer(capacity int, now func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	if now == nil {
		now = time.Now
	}
	return &Tracer{ring: make([]Span, capacity), now: now}
}

// ActiveSpan is an in-flight span; End records it. A nil *ActiveSpan is
// valid and all its methods no-op, so spans can be started from a nil
// tracer unconditionally.
type ActiveSpan struct {
	tr    *Tracer
	span  Span
	start time.Time
	ended bool
}

// Start begins a root span. Returns nil on a nil tracer.
func (t *Tracer) Start(name string) *ActiveSpan {
	return t.StartChild(name, 0)
}

// StartChild begins a span with an explicit parent. Returns nil on a
// nil tracer.
func (t *Tracer) StartChild(name string, parent SpanID) *ActiveSpan {
	if t == nil {
		return nil
	}
	now := t.now()
	return &ActiveSpan{
		tr:    t,
		start: now,
		span: Span{
			ID:      SpanID(t.nextID.Add(1)),
			Parent:  parent,
			Name:    name,
			StartNS: now.UnixNano(),
		},
	}
}

// SetAttr annotates the span.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil || s.ended {
		return
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
}

// End completes the span and commits it to the ring. Calling End more
// than once records only the first call.
func (s *ActiveSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.span.Duration = s.tr.now().Sub(s.start).Nanoseconds()
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.head] = s.span
	t.head = (t.head + 1) % len(t.ring)
}

// Spans returns the recorded spans, oldest first. Nil tracer returns
// nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := (t.head - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Dropped reports how many spans were evicted by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL writes the recorded spans as one JSON object per line,
// oldest first.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}
