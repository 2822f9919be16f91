package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// BatchFunc evaluates a contiguous span of points in one call, writing
// the result of points[i] into out[i] (len(out) == len(points)). A
// batch evaluator amortizes per-point overhead — buffer reuse, metric
// flushes, journal writes — across the span; the analytic solve engine
// is the motivating client.
type BatchFunc[P, R any] func(ctx context.Context, points []P, out []R) error

// RunBatched evaluates points through fn in contiguous spans of at most
// batchSize, with the sweep engine's full supervision applied per span: bounded
// workers, panic recovery, per-span deadline (Options.PointTimeout
// bounds one whole span here). Results come back in input
// order, one per point; a failed span marks every point it covers with
// the span's error.
//
// Each attempt hands fn a private output slice and the results are
// copied out only after the span succeeds, so an abandoned (timed-out)
// evaluation racing its replacement cannot corrupt visible results.
func RunBatched[P, R any](ctx context.Context, points []P, batchSize int, fn BatchFunc[P, R], opts Options) ([]Result[P, R], error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil batch evaluation function")
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("sweep: batch size %d must be positive", batchSize)
	}
	type span struct{ idx, lo, hi int }
	spans := make([]span, 0, (len(points)+batchSize-1)/batchSize)
	for lo := 0; lo < len(points); lo += batchSize {
		hi := lo + batchSize
		if hi > len(points) {
			hi = len(points)
		}
		spans = append(spans, span{len(spans), lo, hi})
	}

	// Span wall-clock, written atomically because a timed-out attempt
	// abandoned by evalOnce may still finish concurrently with its
	// replacement.
	wallNanos := make([]atomic.Int64, len(spans))

	// Per-point accounting happens in the scatter loop below.
	eval := func(ctx context.Context, s span) ([]R, error) {
		began := time.Now()
		out := make([]R, s.hi-s.lo)
		err := fn(ctx, points[s.lo:s.hi], out)
		wallNanos[s.idx].Store(int64(time.Since(began)))
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	spanResults, err := run(ctx, spans, eval, opts)

	results := make([]Result[P, R], len(points))
	for si := range spanResults {
		sr := &spanResults[si]
		s := spans[si]
		for j := s.lo; j < s.hi; j++ {
			r := Result[P, R]{Point: points[j], Attempts: sr.Attempts, Err: sr.Err}
			if sr.Err == nil && sr.Value != nil {
				r.Value = sr.Value[j-s.lo]
			}
			results[j] = r
		}
		if opts.Metrics != nil {
			opts.Metrics.observeSpan(s.hi-s.lo, sr.Err != nil,
				time.Duration(wallNanos[s.idx].Load()))
		}
	}
	return results, err
}
