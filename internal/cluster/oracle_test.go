package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
)

// oraclePoint is one parameter point of the guard oracle: a buffer
// multiple and a gain pair.
type oraclePoint struct {
	bOverQ0 float64
	pt      GainPoint
}

// oraclePoints returns the 16×16 golden grid (TestGainGridGolden's)
// plus 600 seeded points spread over buffer multiples and over gains on
// both sides of the spiral/node thresholds, with some exactly on them
// (repeated-eigenvalue arcs).
func oraclePoints() []oraclePoint {
	var out []oraclePoint
	golden := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16}
	for _, pt := range golden.Points() {
		out = append(out, oraclePoint{golden.BOverQ0, pt})
	}
	p := core.FigureExample()
	giCrit := p.AThreshold() / (p.Ru * float64(p.N))
	gdCrit := p.BThreshold()
	r := rand.New(rand.NewSource(17))
	logUniform := func(mid float64) float64 { return mid * math.Exp2(10*r.Float64()-5) }
	for i := 0; i < 600; i++ {
		op := oraclePoint{1.2 + 10.8*r.Float64(), GainPoint{logUniform(giCrit), logUniform(gdCrit)}}
		switch i % 10 {
		case 8:
			op.pt.Gi = giCrit
		case 9:
			op.pt.Gd = gdCrit
		}
		out = append(out, op)
	}
	return out
}

// dropInvariantColumns strips a row's violations and first_violation
// columns.
func dropInvariantColumns(csv string) string {
	csv = csv[:strings.LastIndexByte(csv, ',')]
	return csv[:strings.LastIndexByte(csv, ',')]
}

// TestKnotGuardMatchesSampledGuard keeps core.Solve's sampled guard as
// the reference for the knot guard every checked row now runs:
//   - every point the sampled guard flags, the row path flags with the
//     same first predicate (the knots include every exact extremum, so
//     the knot guard can only see more);
//   - a strict row aborts exactly on the points the record row flags,
//     on the same predicate;
//   - the record map without its two invariant columns is the
//     off-policy map byte for byte: checking never moves a verdict.
//
// Points only the knot guard flags are logged with the exact rate
// minimum, as an aggregate rate C + y, that the sampled polyline
// stepped over.
func TestKnotGuardMatchesSampledGuard(t *testing.T) {
	ctx := context.Background()
	kinds := map[core.CaseKind]int{}
	// Tallies of flagged rows and violations, for the golden grid (0)
	// and the seeded points (1).
	var sampledRows, knotRows [2]int
	var sampledTotal, knotTotal [2]uint64
	for i, op := range oraclePoints() {
		set := min(i/256, 1)
		grid := GainGrid{BOverQ0: op.bOverQ0, GiLo: 1, GiHi: 2, GdLo: 1, GdHi: 2, Steps: 2}
		p := grid.Base()
		p.Gi, p.Gd = op.pt.Gi, op.pt.Gd
		kinds[p.Case()]++

		tr, err := core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)})
		if err != nil {
			t.Fatalf("%+v: core.Solve: %v", op, err)
		}
		rows := map[string]Row{}
		for _, pol := range []string{"off", "record", "strict"} {
			g := grid
			g.Invariants = pol
			row, err := g.Eval(ctx, op.pt, EvalMetrics{})
			if v, ok := invariant.StrictAbort(err); ok && pol == "strict" {
				row = Row{FirstPred: v.Predicate}
			} else if err != nil {
				t.Fatalf("%+v: %s row: %v", op, pol, err)
			}
			rows[pol] = row
		}
		off, rec, strict := rows["off"], rows["record"], rows["strict"]

		if tr.Violations.Total > 0 {
			sampledRows[set]++
			sampledTotal[set] += tr.Violations.Total
			if rec.FirstPred != tr.Violations.FirstPredicate() {
				t.Errorf("%+v: sampled guard flags %d (first %q), row path %d (first %q)",
					op, tr.Violations.Total, tr.Violations.FirstPredicate(), rec.Violations, rec.FirstPred)
			}
		}
		if rec.Violations > 0 {
			knotRows[set]++
			knotTotal[set] += rec.Violations
			if tr.Violations.Total == 0 {
				t.Logf("knot guard only: b/q0=%v gi=%v gd=%v %s: %s, rate minimum %v bits/s",
					op.bOverQ0, op.pt.Gi, op.pt.Gd, p.Case(), rec.FirstPred, p.C+rateMinimum(t, p))
			}
		}
		if aborted := strict.CSV == ""; aborted != (rec.Violations > 0) || strict.FirstPred != rec.FirstPred {
			t.Errorf("%+v: strict row %+v, record row %+v", op, strict, rec)
		}
		if got, want := dropInvariantColumns(rec.CSV), dropInvariantColumns(off.CSV); got != want {
			t.Errorf("%+v: record row %q, off row %q", op, got, want)
		}
		if set == 0 {
			// The RK45 stepper reports its rate minimum from an ode event.
			// It may stitch a different number of rounds (its ρ agrees only
			// to the integrator's tolerance), so only the flag and the first
			// predicate must match.
			g := grid
			g.Invariants, g.Analytic = "record", "off"
			rk, err := g.Eval(ctx, op.pt, EvalMetrics{})
			if err != nil {
				t.Fatal(err)
			}
			if (rk.Violations > 0) != (rec.Violations > 0) || rk.FirstPred != rec.FirstPred {
				t.Errorf("%+v: rk45 record row %+v, closed-form record row %+v", op, rk, rec)
			}
		}
	}
	for _, c := range []core.CaseKind{core.Case1, core.Case2, core.Case3, core.Case4, core.Case5} {
		if kinds[c] == 0 {
			t.Errorf("no oracle point in %s", c)
		}
	}
	t.Logf("cases %v", kinds)
	for set, name := range []string{"golden grid", "seeded points"} {
		t.Logf("%s: sampled guard flags %d rows with %d violations, knot guard %d rows with %d violations",
			name, sampledRows[set], sampledTotal[set], knotRows[set], knotTotal[set])
	}
}

// rateMinimum is the lowest y of p's trajectory when it falls below
// −C: the lowest rate-bounds knot the analytic engine's guard reports.
func rateMinimum(t *testing.T, p core.Params) float64 {
	chk, err := invariant.New(invariant.Config{Policy: invariant.Record, MaxSamples: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analytic.NewSolver().Solve(p, analytic.Options{Invariants: chk}); err != nil {
		t.Fatal(err)
	}
	lo := math.Inf(1)
	for _, v := range chk.Stats().First {
		var y float64
		if _, err := fmt.Sscanf(v.Detail, "value %g", &y); err == nil && v.Predicate == core.PredRateBounds {
			lo = math.Min(lo, y)
		}
	}
	return lo
}
