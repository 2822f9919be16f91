// Package sweep runs parameter studies concurrently with bounded
// parallelism: a grid of points is mapped through an evaluation function
// on a worker pool, preserving input order in the results. The stability
// maps and transient sweeps in internal/experiments and cmd/bcnsweep are
// the primary clients — each grid point solves an independent trajectory,
// so the sweeps parallelize embarrassingly.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Func evaluates one point of a sweep.
type Func[P, R any] func(ctx context.Context, point P) (R, error)

// Options configures RunBatched and One.
type Options struct {
	// Workers bounds the concurrency; 0 defaults to GOMAXPROCS.
	Workers int
	// PointTimeout is a hard per-point deadline; 0 means none. The
	// evaluation's context carries the deadline, and an evaluation that
	// ignores it is abandoned (it finishes on a background goroutine and
	// its late result is discarded) so one stuck point cannot hang the
	// sweep.
	PointTimeout time.Duration
	// ContinueOnError keeps evaluating the remaining points after a
	// failure instead of cancelling them; failed points carry their
	// error in Result.Err. RunBatched still returns the first error so
	// callers can tell a degraded sweep from a clean one.
	ContinueOnError bool
	// Metrics optionally records point throughput, failures, and (for
	// a journaled runner) replays and journal latency. Nil costs one
	// comparison per point.
	Metrics *Metrics
}

// Result pairs one input point with its output (or error).
type Result[P, R any] struct {
	Point P
	Value R
	Err   error
	// Attempts is 1 for an evaluated point; 0 marks a point never
	// evaluated (sweep cancelled first, or replayed from a journal).
	Attempts int
	// Cached marks a point replayed from a journal instead of being
	// evaluated; cluster.GainGrid.RunJournaled, the one journaled
	// runner, sets it.
	Cached bool
}

// PanicError is the Result.Err of a point whose evaluation panicked: the
// panic is recovered so the sweep survives, and the value plus stack are
// preserved for diagnosis.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: evaluation panicked: %v", e.Value)
}

// run is the engine under RunBatched: it evaluates fn on every point
// with at most opts.Workers goroutines, returning results in input
// order. Evaluations are panic-recovered (PanicError) and
// deadline-bounded (Options.PointTimeout), so a single bad point cannot
// crash or hang the sweep. By default the first error cancels the
// context handed to the remaining evaluations; with
// Options.ContinueOnError every point is still evaluated and failures
// stay local to their Result. Every point produces a Result (possibly
// with Err set, including ctx.Err for cancelled ones), and run itself
// returns the first error observed, if any. Options.Metrics is not
// read here: RunBatched accounts per span.
func run[P, R any](ctx context.Context, points []P, fn Func[P, R], opts Options) ([]Result[P, R], error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil evaluation function")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	results := make([]Result[P, R], len(points))
	if len(points) == 0 {
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
			if !opts.ContinueOnError {
				cancel()
			}
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				p := points[i]
				if err := ctx.Err(); err != nil {
					results[i] = Result[P, R]{Point: p, Err: err}
					continue
				}
				v, err := evalOnce(ctx, p, fn, opts.PointTimeout)
				results[i] = Result[P, R]{Point: p, Value: v, Err: err, Attempts: 1}
				if err != nil {
					setErr(results[i].Err)
				}
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, firstErr
}

// evalOnce runs fn once with panic recovery and the optional hard
// deadline. The evaluation runs on its own goroutine sending into a
// buffered channel, so when the deadline fires first the point fails
// with the deadline error while a non-cooperative fn drains harmlessly
// in the background.
func evalOnce[P, R any](ctx context.Context, p P, fn Func[P, R], timeout time.Duration) (R, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type outcome struct {
		v   R
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero R
				ch <- outcome{zero, &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		v, err := fn(ctx, p)
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// InvariantReporter is implemented by evaluation values that carry
// runtime invariant tallies (e.g. a trajectory solved under the Record
// policy). The sweep package itself knows nothing about the model
// invariants; it only aggregates what the values report.
type InvariantReporter interface {
	// InvariantViolations returns the number of violations this point
	// observed and the first failed predicate ("" when clean).
	InvariantViolations() (total uint64, firstPredicate string)
}

// ViolationTally aggregates per-point invariant violations across a
// completed sweep.
type ViolationTally struct {
	// Points is the number of results whose value reports tallies.
	Points int
	// Dirty is the number of points with at least one violation.
	Dirty int
	// Total sums violations over all points.
	Total uint64
	// ByPredicate counts dirty points per first-failed predicate.
	ByPredicate map[string]int
}

// TallyViolations sums the invariant tallies of every successful result
// whose value implements InvariantReporter. Results with errors (or
// values that do not report) are skipped.
func TallyViolations[P, R any](results []Result[P, R]) ViolationTally {
	t := ViolationTally{ByPredicate: make(map[string]int)}
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		rep, ok := any(results[i].Value).(InvariantReporter)
		if !ok {
			continue
		}
		total, first := rep.InvariantViolations()
		t.Points++
		t.Total += total
		if total > 0 {
			t.Dirty++
			if first != "" {
				t.ByPredicate[first]++
			}
		}
	}
	return t
}
