package sweep

import (
	"context"
	"fmt"
)

// One evaluates a single point under the sweep's full supervision —
// panic recovery (PanicError), the hard Options.PointTimeout deadline
// with abandonment of non-cooperative evaluations — without building a
// grid. It is the
// serving layer's job executor: a request handler that runs untrusted
// parameter sets through One can never be crashed or hung by one bad
// job, which is exactly the isolation RunBatched gives each span.
func One[P, R any](ctx context.Context, p P, fn Func[P, R], opts Options) (R, error) {
	if fn == nil {
		var zero R
		return zero, fmt.Errorf("sweep: nil evaluation function")
	}
	return evalOnce(ctx, p, fn, opts.PointTimeout)
}
