package sweep_test

import (
	"context"
	"errors"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/sweep"
)

// guardedRow is the minimal sweep value implementing InvariantReporter.
type guardedRow struct {
	stats invariant.Stats
}

func (r guardedRow) InvariantViolations() (uint64, string) {
	return r.stats.Total, r.stats.FirstPredicate()
}

// brokenEval solves a one-point span whose Gd has been negated — the
// acceptance scenario of the invariant layer: a deliberately broken
// parameter set flowing through the sweep pipeline.
func brokenEval(policy invariant.Policy) sweep.BatchFunc[float64, guardedRow] {
	return func(_ context.Context, gds []float64, out []guardedRow) error {
		p := core.PaperExample()
		p.Gd = -gds[0]
		tr, err := core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(policy)})
		if err != nil {
			return err
		}
		out[0] = guardedRow{stats: tr.Violations}
		return nil
	}
}

// TestSweepNegativeGdStrictVsRecord is the end-to-end acceptance check:
// under Strict every broken point fails with a structured
// *invariant.InvariantError naming the predicate; the same sweep under
// Record completes every point and TallyViolations surfaces non-zero
// counts.
func TestSweepNegativeGdStrictVsRecord(t *testing.T) {
	points := []float64{1.0 / 128, 1.0 / 64}
	opts := sweep.Options{ContinueOnError: true}

	strict, err := sweep.RunBatched(context.Background(), points, 1, brokenEval(invariant.Strict), opts)
	if err == nil {
		t.Fatal("Strict sweep over broken points reported no error")
	}
	for _, r := range strict {
		var ie *invariant.InvariantError
		if !errors.As(r.Err, &ie) {
			t.Fatalf("point %v: want *InvariantError, got %v", r.Point, r.Err)
		}
		if ie.Violation.Predicate != core.PredParamsValid {
			t.Errorf("point %v: predicate %q, want %q", r.Point, ie.Violation.Predicate, core.PredParamsValid)
		}
	}

	record, err := sweep.RunBatched(context.Background(), points, 1, brokenEval(invariant.Record), opts)
	if err != nil {
		t.Fatalf("Record sweep did not complete: %v", err)
	}
	tally := sweep.TallyViolations(record)
	if tally.Points != len(points) || tally.Dirty != len(points) {
		t.Errorf("tally = %+v, want every point counted and dirty", tally)
	}
	if tally.Total == 0 || tally.ByPredicate[core.PredParamsValid] != len(points) {
		t.Errorf("violations not surfaced: %+v", tally)
	}
}
