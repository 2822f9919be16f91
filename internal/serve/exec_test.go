package serve

import (
	"fmt"
	"math"
	"testing"

	"bcnphase/internal/core"
)

// TestSweepRowMatchesSprintf holds sweepRow to the fmt layout served
// sweep rows were rendered with before the strconv appender, byte for
// byte, on the values where %g's form is delicate: journaled sweep
// artifacts are answered byte-identically on resubmit, so their rows
// must keep their exact bytes.
func TestSweepRowMatchesSprintf(t *testing.T) {
	const layout = "%g,%g,%s,%v,%g,%g,%d"
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1e20, 1e21, 1e-4, 1e-5, -0.000012345,
		math.MaxFloat64, 1.0 / 3, 0.05, 12.8, 4.123456789012345e6,
	}
	for i, x := range floats {
		y := floats[(i+5)%len(floats)]
		for o := core.Outcome(0); o <= core.OutcomeHorizon+1; o++ {
			p := core.Params{Gi: x, Gd: y}
			violations := uint64(i) * 1e17
			want := fmt.Sprintf(layout, p.Gi, p.Gd, o, o.StronglyStable(), y, x, violations)
			if got := sweepRow(p, o, y, x, violations); got != want {
				t.Errorf("sweepRow %q, Sprintf %q", got, want)
			}
		}
	}
}
