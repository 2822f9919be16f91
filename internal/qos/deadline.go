package qos

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DefaultHopMargin is the per-hop deadline decrement: forwarding a
// request costs this much budget, covering serialization, the network
// round trip's front half, and queueing at the next hop.
const DefaultHopMargin = 25 * time.Millisecond

// maxDeadlineBudget caps the wire budget: anything longer is a
// configuration error, not a deadline.
const maxDeadlineBudget = 24 * time.Hour

// ParseDeadline parses a Bcn-Deadline-Ms header value into a budget.
// An empty value means "no deadline" (ok=false, no error). Malformed or
// out-of-range values are errors so callers answer 400.
func ParseDeadline(v string) (budget time.Duration, ok bool, err error) {
	if v == "" {
		return 0, false, nil
	}
	ms, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("deadline header not integer milliseconds: %q", v)
	}
	if ms <= 0 {
		return 0, false, fmt.Errorf("deadline budget must be positive, got %d", ms)
	}
	// Range-check in milliseconds before converting: the conversion
	// itself overflows int64 nanoseconds near 2^63/1e6 ms.
	if ms > int64(maxDeadlineBudget/time.Millisecond) {
		return 0, false, fmt.Errorf("deadline budget %dms exceeds %v", ms, maxDeadlineBudget)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// FormatDeadline renders a budget as a Bcn-Deadline-Ms value, rounding
// down; a sub-millisecond budget renders as 1 so it stays positive and
// gets doomed downstream by the margin check, not by parse failure.
func FormatDeadline(budget time.Duration) string {
	ms := int64(budget / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return strconv.FormatInt(ms, 10)
}

// SetRetryAfter writes a positive retry hint into h as Retry-After
// delay-seconds, rounded up and at least 1, and returns the seconds
// written so a JSON body's retry_after_sec can mirror the header. A
// non-positive hint writes nothing and returns 0.
func SetRetryAfter(h http.Header, retryAfter time.Duration) int64 {
	if retryAfter <= 0 {
		return 0
	}
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	h.Set("Retry-After", strconv.FormatInt(secs, 10))
	return secs
}

// RetryAfter reads h's Retry-After header as delay-seconds (the only
// form this repo emits); an absent, negative, malformed, overflowing or
// HTTP-date value yields 0.
func RetryAfter(h http.Header) time.Duration {
	secs, err := strconv.ParseInt(h.Get("Retry-After"), 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Forward decrements a budget by one hop margin (DefaultHopMargin). A
// non-positive result means the downstream call is doomed and should not
// be made.
func Forward(budget time.Duration) time.Duration {
	return budget - DefaultHopMargin
}

// Doomed reports whether a request with this remaining budget cannot
// usefully proceed: it has no more than one hop margin left.
func Doomed(budget time.Duration) bool {
	return budget <= DefaultHopMargin
}

// WithBudget derives a context that expires when the budget does,
// without shrinking an already-tighter parent deadline. The returned
// cancel must be called.
func WithBudget(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return context.WithCancel(ctx)
	}
	if cur, ok := ctx.Deadline(); ok && time.Until(cur) <= budget {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, budget)
}

// Remaining converts a context deadline back into a wire budget:
// (remaining, true) when ctx carries a deadline, (0, false) otherwise.
func Remaining(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(dl), true
}
