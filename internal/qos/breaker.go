package qos

import (
	"sync"
	"time"

	"bcnphase/internal/telemetry"
)

// Breaker state encoding for the optional state gauge.
const (
	BreakerClosed      = 0.0
	BreakerHalfOpen    = 1.0
	BreakerOpen        = 2.0
	BreakerQuarantined = 3.0
)

// Breaker is a keyed circuit breaker: a key that fails threshold times
// in a row is opened, and Allow rejects it fast with an explicit retry
// hint instead of spending capacity just to fail again. After the
// cooldown it goes half-open and admits exactly one probe, whose
// outcome closes or re-opens it. internal/serve keys it by parameter
// region, internal/cluster by worker base URL. Quarantine is a terminal
// state on top: an integrity verdict, not load management, so it holds
// even on a disabled breaker and nothing ever reopens it. All methods
// are safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	index     map[string]int
	keys      []breakerKey // in first-seen order

	// transitions counts state changes by destination state ("open",
	// "half-open", "closed", "quarantined"); state holds each key's live
	// state. Both may be nil.
	transitions *telemetry.CounterVec
	state       *telemetry.GaugeVec
}

type breakerKey struct {
	name        string
	consecutive int       // consecutive failures while closed
	openUntil   time.Time // nonzero from opening until a success
	probing     bool      // a half-open probe is in flight
	trips       uint64    // times opened or quarantined
	quarantined bool
	gauge       *telemetry.Gauge
}

// BreakerStatus is one key's snapshot.
type BreakerStatus struct {
	Key         string
	State       string // "closed", "open", "half-open", "quarantined"
	Consecutive int
	Trips       uint64
	// RetryAfterSec is the remaining cooldown of an open key.
	RetryAfterSec int64
}

// NewBreaker builds a breaker that opens a key after threshold
// consecutive failures for the given cooldown. threshold <= 0 disables
// tripping; now == nil uses time.Now. keys are registered up front, in
// order, so their state series read closed before the first failure;
// any other key is registered by its first Failure or Quarantine.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time,
	transitions *telemetry.CounterVec, state *telemetry.GaugeVec, keys ...string) *Breaker {
	if now == nil {
		now = time.Now
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown, now: now,
		index: make(map[string]int, len(keys)), transitions: transitions, state: state}
	for _, k := range keys {
		b.key(k, true)
	}
	return b
}

// key returns k's state, registering it when register is set and nil
// otherwise for a key never seen. Caller holds mu (or owns b).
func (b *Breaker) key(k string, register bool) *breakerKey {
	if i, ok := b.index[k]; ok {
		return &b.keys[i]
	}
	if !register {
		return nil
	}
	b.index[k] = len(b.keys)
	b.keys = append(b.keys, breakerKey{name: k, gauge: b.state.With(k)})
	s := &b.keys[len(b.keys)-1]
	s.gauge.Set(BreakerClosed)
	return s
}

// Allow reports whether work for k may run now. An open key rejects
// with its remaining cooldown; once that elapses exactly one probe is
// admitted, and everyone else gets a cooldown/4 hint until the probe
// resolves via Success, Failure or Release.
func (b *Breaker) Allow(k string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k, false)
	switch {
	case s == nil:
		return true, 0
	case s.quarantined:
		return false, time.Hour
	case b.threshold <= 0 || s.openUntil.IsZero():
		return true, 0
	}
	if rem := s.openUntil.Sub(b.now()); rem > 0 {
		return false, rem
	}
	if s.probing {
		return false, b.cooldown / 4
	}
	s.probing = true
	b.transitions.With("half-open").Inc()
	s.gauge.Set(BreakerHalfOpen)
	return true, 0
}

// Success records completed work for k, closing it. A quarantined key
// stays quarantined: answering *something* is not evidence of
// answering *correctly*.
func (b *Breaker) Success(k string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k, false)
	if s == nil || s.quarantined || b.threshold <= 0 {
		return
	}
	if !s.openUntil.IsZero() || s.probing {
		b.transitions.With("closed").Inc()
	}
	s.consecutive, s.openUntil, s.probing = 0, time.Time{}, false
	s.gauge.Set(BreakerClosed)
}

// Failure records a failure for k, opening it once the consecutive
// count reaches the threshold — and re-opening at once a half-open key
// whose probe failed.
func (b *Breaker) Failure(k string) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k, true)
	if s.quarantined {
		return
	}
	s.consecutive++
	if s.probing || s.consecutive >= b.threshold {
		s.openUntil, s.probing = b.now().Add(b.cooldown), false
		s.trips++
		b.transitions.With("open").Inc()
		s.gauge.Set(BreakerOpen)
	}
}

// Release resolves a half-open probe without a verdict (cancelled, or
// failed for reasons unrelated to k): k stays half-open for the next
// probe instead of closing on no evidence or jamming behind a probe
// that never reports back.
func (b *Breaker) Release(k string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.key(k, false); s != nil && !s.quarantined && b.threshold > 0 && s.probing {
		s.probing = false
		s.gauge.Set(BreakerOpen)
	}
}

// Open reports whether k is barred from new work right now (no probe
// admissible).
func (b *Breaker) Open(k string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k, false)
	if s == nil || s.quarantined {
		return s != nil
	}
	return b.threshold > 0 && !s.openUntil.IsZero() && (s.openUntil.After(b.now()) || s.probing)
}

// Quarantine places k in the terminal quarantined state: Allow and Open
// bar it for good and Success/Failure/Release become no-ops. Returns
// false when k was already quarantined, so verdicts stay idempotent.
func (b *Breaker) Quarantine(k string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k, true)
	if s.quarantined {
		return false
	}
	s.quarantined, s.probing = true, false
	s.trips++
	b.transitions.With("quarantined").Inc()
	s.gauge.Set(BreakerQuarantined)
	return true
}

// Quarantined reports whether k has been quarantined.
func (b *Breaker) Quarantined(k string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.key(k, false)
	return s != nil && s.quarantined
}

// Snapshot lists every registered key's state in first-seen order.
func (b *Breaker) Snapshot() []BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	out := make([]BreakerStatus, len(b.keys))
	for i, s := range b.keys {
		out[i] = BreakerStatus{Key: s.name, State: "closed", Consecutive: s.consecutive, Trips: s.trips}
		switch {
		case s.quarantined:
			out[i].State = "quarantined"
		case s.openUntil.IsZero():
		case s.openUntil.After(now):
			out[i].State, out[i].RetryAfterSec = "open", int64(s.openUntil.Sub(now)/time.Second)+1
		default:
			out[i].State = "half-open"
		}
	}
	return out
}
