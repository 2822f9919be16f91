package cluster

import (
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// backoff paces retries of one shard dispatch: exponential growth with
// full jitter, capped, and overridden by the worker's explicit
// Retry-After feedback when present. Jitter matters as much as the
// exponent — N clients that shed together and retry on the same
// schedule re-collide forever (the oscillation the related work warns
// about); randomizing within the window decorrelates them.
type backoff struct {
	base, cap time.Duration
	attempt   int
	rng       *lockedRand
}

// next returns the wait before the next attempt. retryAfter is the
// worker's Retry-After hint (0 when absent): an explicit hint is
// honored — capped, with a small jitter so simultaneous retriers still
// spread — while absent hints fall back to jittered exponential growth.
func (b *backoff) next(retryAfter time.Duration) time.Duration {
	defer func() { b.attempt++ }()
	if retryAfter > 0 {
		if retryAfter > b.cap {
			retryAfter = b.cap
		}
		// Up to +25% jitter on top of the hint, never below it.
		return retryAfter + time.Duration(b.rng.Int63n(int64(retryAfter)/4+1))
	}
	d := b.base << b.attempt
	if d > b.cap || d <= 0 {
		d = b.cap
	}
	// Full jitter in [d/2, d].
	return d/2 + time.Duration(b.rng.Int63n(int64(d)/2+1))
}

// RetryPacer is the exported face of the dispatch backoff, for the
// client binaries (bcnd -post, bcnsweep -cluster): jittered exponential
// growth that honors explicit Retry-After feedback. A herd of clients
// shed together MUST each jitter independently — retrying on the shared
// hint verbatim re-collides the herd every cycle.
type RetryPacer struct {
	b backoff
}

// NewRetryPacer builds a pacer with the given base and cap (zeros get
// 200ms and 10s). seed 0 seeds from the clock; a fixed seed makes the
// jitter sequence reproducible for tests.
func NewRetryPacer(base, cap time.Duration, seed int64) *RetryPacer {
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if cap <= 0 {
		cap = 10 * time.Second
	}
	return &RetryPacer{b: backoff{base: base, cap: cap, rng: newLockedRand(seed)}}
}

// Next returns the jittered wait before the next attempt. retryAfter is
// the server's Retry-After hint, 0 when absent.
func (p *RetryPacer) Next(retryAfter time.Duration) time.Duration {
	return p.b.next(retryAfter)
}

// RetryableStatus reports whether an HTTP status from a worker is worth
// retrying: overload shed (429), gateway failures (502, 504) and
// unavailability (503, e.g. a draining worker) are transient; anything
// else is a verdict about the request itself. The coordinator and the
// client binaries share it, so every retry loop uses one verdict table.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// lockedRand is a mutex-guarded rand.Rand: dispatch goroutines share
// one deterministic (seedable) jitter source without a data race.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Int63n(n)
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}
