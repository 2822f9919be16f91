package core

import (
	"errors"
	"strings"
	"testing"

	"bcnphase/internal/invariant"
)

// TestSolveStrictNegativeGd is the headline acceptance check for the
// guardrail layer: a corrupted parameter set (negative Gd) under the
// Strict policy aborts with a structured *invariant.InvariantError naming
// the failed predicate and the simulation time.
func TestSolveStrictNegativeGd(t *testing.T) {
	p := FigureExample()
	p.Gd = -p.Gd
	chk := invariant.NewPolicy(invariant.Strict)
	tr, err := Solve(p, SolveOptions{Invariants: chk})
	var ie *invariant.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InvariantError, got %T: %v", err, err)
	}
	if ie.Violation.Predicate != PredParamsValid {
		t.Fatalf("predicate = %q, want %q", ie.Violation.Predicate, PredParamsValid)
	}
	if !strings.Contains(ie.Error(), PredParamsValid) || !strings.Contains(ie.Error(), "t=") {
		t.Fatalf("error %q lacks predicate name or time", ie.Error())
	}
	if tr != nil {
		t.Fatal("Strict abort should not return a trajectory")
	}
}

// TestSolveRecordNegativeGdCompletes is the other half of the acceptance
// pair: the same corrupted run under Record completes and reports non-zero
// violation counts instead of aborting.
func TestSolveRecordNegativeGdCompletes(t *testing.T) {
	p := FigureExample()
	p.Gd = -p.Gd
	chk := invariant.NewPolicy(invariant.Record)
	tr, err := Solve(p, SolveOptions{Invariants: chk})
	if err != nil {
		t.Fatalf("Record run errored: %v", err)
	}
	if tr == nil {
		t.Fatal("Record run returned no trajectory")
	}
	if tr.Violations.Total == 0 {
		t.Fatal("Record run reported zero violations for negative Gd")
	}
	if tr.Violations.ByPredicate[PredParamsValid] == 0 {
		t.Fatalf("params-valid not tallied: %+v", tr.Violations.ByPredicate)
	}
	if tr.Violations.FirstPredicate() != PredParamsValid {
		t.Fatalf("first predicate = %q", tr.Violations.FirstPredicate())
	}
}

// TestSolveWithoutCheckerKeepsContract verifies the historical behaviour
// is untouched when no checker is attached: invalid parameters are
// rejected with ErrInvalidParams before any integration.
func TestSolveWithoutCheckerKeepsContract(t *testing.T) {
	p := FigureExample()
	p.Gd = -p.Gd
	if _, err := Solve(p, SolveOptions{}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("want ErrInvalidParams, got %v", err)
	}
}

// TestSolveCleanRunHasNoViolations runs the canonical strongly-stable
// trajectory under Strict: a healthy closed-form solve must satisfy every
// invariant it claims to maintain.
func TestSolveCleanRunHasNoViolations(t *testing.T) {
	for _, kind := range []CaseKind{Case1, Case2, Case3, Case4, Case5} {
		p := CaseExample(kind)
		chk := invariant.NewPolicy(invariant.Strict)
		tr, err := Solve(p, SolveOptions{Invariants: chk})
		if err != nil {
			t.Fatalf("%v: clean run violated an invariant: %v", kind, err)
		}
		if tr.Violations.Total != 0 {
			t.Fatalf("%v: violations = %+v", kind, tr.Violations)
		}
	}
}

// TestSolveWarmupGuarded attaches the checker to a warm-up run so the
// boundary-slide samples also pass through the guard.
func TestSolveWarmupGuarded(t *testing.T) {
	p := FigureExample()
	mu := 0.25 * p.C / float64(p.N)
	chk := invariant.NewPolicy(invariant.Strict)
	tr, err := Solve(p, SolveOptions{WarmupFromRate: &mu, Invariants: chk})
	if err != nil {
		t.Fatalf("warm-up run violated an invariant: %v", err)
	}
	if tr.Violations.Total != 0 {
		t.Fatalf("violations = %+v", tr.Violations)
	}
}

// TestSolveRecordAllocs gates the guard's pass path: a Record-policy
// solve of the figure example samples ~200 points, and the allocations
// must stay per-solve (trajectory, slice growth, checker tallies), not
// per-sample. Boxing the σ-branch detail arguments on every passing
// sample costs three allocations each, over 600 per solve.
func TestSolveRecordAllocs(t *testing.T) {
	p := FigureExample()
	allocs := testing.AllocsPerRun(20, func() {
		tr, err := Solve(p, SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)})
		if err != nil || tr.Violations.Total != 0 {
			t.Fatalf("record solve: err=%v violations=%+v", err, tr.Violations)
		}
	})
	if allocs > 100 {
		t.Fatalf("Record-policy Solve: %.0f allocs/run, want <= 100", allocs)
	}
}
