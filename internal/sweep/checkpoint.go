package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// Checkpoint persists completed point results across process restarts.
// internal/runstate.Journal satisfies it; any keyed byte store with
// durable batch semantics works. Implementations must be safe for
// concurrent use — sweep workers record spans in parallel.
type Checkpoint interface {
	// Lookup returns the stored value for key, if present.
	Lookup(key string) ([]byte, bool)
	// RecordBatch durably stores values[i] (valid JSON) under keys[i].
	// On error none of the batch may be served by Lookup.
	RecordBatch(keys []string, values [][]byte) error
}

// RunCheckpointed is RunBatched with crash-safe resume. Points whose key
// ck already holds are not re-evaluated: their value is decoded and
// returned with Result.Cached set. The rest run in spans of batchSize,
// and a span counts as done only once its results are recorded in ck
// (as JSON) in one RecordBatch; a failed record fails the whole span. A
// resumed run thus re-pays at most the spans in flight at the cut:
// workers × batchSize points. key must identify a point's full
// evaluation identity (params, seed, config fingerprint), and R must
// round-trip through encoding/json. With a nil ck or key it is
// RunBatched.
func RunCheckpointed[P, R any](ctx context.Context, points []P, batchSize int, fn BatchFunc[P, R], opts Options, ck Checkpoint, key func(P) string) ([]Result[P, R], error) {
	if ck == nil || key == nil {
		return RunBatched(ctx, points, batchSize, fn, opts)
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil batch evaluation function")
	}
	results := make([]Result[P, R], len(points))
	keys := make([]string, len(points))
	var todo []int
	for i, p := range points {
		keys[i] = key(p)
		if raw, ok := ck.Lookup(keys[i]); ok {
			var v R
			if err := json.Unmarshal(raw, &v); err == nil {
				results[i] = Result[P, R]{Point: p, Value: v, Cached: true}
				if opts.Metrics != nil {
					opts.Metrics.Replayed.Inc()
				}
				continue
			}
			// An undecodable journal value (e.g. the result type changed
			// shape) falls through to re-evaluation rather than failing
			// the resume.
		}
		todo = append(todo, i)
	}
	// The spans run over todo, the indices of the points to evaluate.
	inner, err := RunBatched(ctx, todo, batchSize, func(ctx context.Context, idx []int, out []R) error {
		pts, spanKeys := make([]P, len(idx)), make([]string, len(idx))
		for k, i := range idx {
			pts[k], spanKeys[k] = points[i], keys[i]
		}
		if err := fn(ctx, pts, out); err != nil {
			return err
		}
		vals := make([][]byte, len(out))
		for k := range out {
			var err error
			if vals[k], err = json.Marshal(out[k]); err != nil {
				return fmt.Errorf("sweep: checkpoint encode: %w", err)
			}
		}
		began := time.Now()
		err := ck.RecordBatch(spanKeys, vals)
		if opts.Metrics != nil {
			opts.Metrics.CheckpointSeconds.Observe(time.Since(began).Seconds())
		}
		if err != nil {
			return fmt.Errorf("sweep: checkpoint record: %w", err)
		}
		return nil
	}, opts)
	for _, r := range inner {
		results[r.Point] = Result[P, R]{
			Point:    points[r.Point],
			Value:    r.Value,
			Err:      r.Err,
			Attempts: r.Attempts,
		}
	}
	return results, err
}
