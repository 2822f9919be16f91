package netsim

import (
	"errors"
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
)

func guardedConfig() Config {
	return Config{
		N:         2,
		Capacity:  1e9,
		LineRate:  1e9,
		FrameBits: 12000,

		BufferBits:   4e5,
		PropDelay:    FromSeconds(10e-6),
		InitialRate:  2e8,
		BCN:          true,
		Q0:           2e5,
		W:            2,
		Pm:           1,
		Ru:           8e6,
		Gi:           0.5,
		Gd:           1.0 / 128,
		PreAssociate: true,
	}
}

func TestInvariantsCleanRunUnderStrict(t *testing.T) {
	cfg := guardedConfig()
	cfg.Invariants = invariant.Strict
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(0.02)
	if err != nil {
		t.Fatalf("healthy run violated an invariant: %v", err)
	}
	if res.Invariants.Total != 0 {
		t.Fatalf("violations = %+v", res.Invariants)
	}
}

// TestInvariantsRecordFlagsExcessRate drives an uncontrolled source above
// the line rate (the fixed-rate path performs no clamping): Record must
// tally rate-bounds violations while the run completes normally.
func TestInvariantsRecordFlagsExcessRate(t *testing.T) {
	cfg := guardedConfig()
	cfg.BCN = false
	cfg.InitialRate = 2 * cfg.LineRate
	cfg.Invariants = invariant.Record
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(0.01)
	if err != nil {
		t.Fatalf("Record run aborted: %v", err)
	}
	if res.Invariants.Total == 0 {
		t.Fatal("no violations recorded for an over-line-rate source")
	}
	if res.Invariants.ByPredicate[core.PredRateBounds] == 0 {
		t.Fatalf("rate-bounds not tallied: %+v", res.Invariants.ByPredicate)
	}
	if res.Invariants.FirstPredicate() != core.PredRateBounds {
		t.Fatalf("first predicate = %q", res.Invariants.FirstPredicate())
	}
}

// TestInvariantsStrictAbortsRun is the Strict half: the same broken
// scenario aborts with a structured *invariant.InvariantError and a
// partial result.
func TestInvariantsStrictAbortsRun(t *testing.T) {
	cfg := guardedConfig()
	cfg.BCN = false
	cfg.InitialRate = 2 * cfg.LineRate
	cfg.Invariants = invariant.Strict
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(0.01)
	var ie *invariant.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InvariantError, got %T: %v", err, err)
	}
	if ie.Violation.Predicate != core.PredRateBounds {
		t.Fatalf("predicate = %q", ie.Violation.Predicate)
	}
	if res == nil {
		t.Fatal("aborted run returned no partial result")
	}
	if res.SimSeconds >= 0.01 {
		t.Fatalf("run was not aborted early: covered %v s", res.SimSeconds)
	}
}

func TestInvariantsUnknownPolicyRejected(t *testing.T) {
	cfg := guardedConfig()
	cfg.Invariants = invariant.Policy(99)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown invariant policy accepted")
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an unknown invariant policy")
	}
}

func TestInvariantsQCNSchemeGuarded(t *testing.T) {
	cfg := guardedConfig()
	cfg.Scheme = SchemeQCN
	cfg.Invariants = invariant.Strict
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(0.02)
	if err != nil {
		t.Fatalf("QCN run violated an invariant: %v", err)
	}
	if res.Invariants.Total != 0 {
		t.Fatalf("violations = %+v", res.Invariants)
	}
}

// TestSimMonitorStopsRun checks the engine hook directly: a monitor error
// aborts RunChecked at the offending event.
func TestSimMonitorStopsRun(t *testing.T) {
	s := &Sim{}
	sentinel := errors.New("stop here")
	var ran int
	for i := 1; i <= 5; i++ {
		if err := s.At(Nanos(i), func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Monitor = func(at Nanos) error {
		if at >= 3 {
			return sentinel
		}
		return nil
	}
	if err := s.RunChecked(10, 0, nil); !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
	if s.Now() != 3 {
		t.Fatalf("clock at %d, want 3", s.Now())
	}
}

// TestSimMonitorSeesOrderedTimestamps verifies the guard's event-order
// premise on a realistic run: monitor timestamps never regress.
func TestSimMonitorSeesOrderedTimestamps(t *testing.T) {
	cfg := guardedConfig()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last Nanos = -1
	nw.sim.Monitor = func(at Nanos) error {
		if at < last {
			t.Fatalf("event at %d after %d", at, last)
		}
		last = at
		return nil
	}
	if _, err := nw.Run(0.005); err != nil {
		t.Fatal(err)
	}
	if last < 0 {
		t.Fatal("monitor never ran")
	}
}

// TestMetamorphicRecordIsPassive: attaching the Record-policy guard to a
// packet-level run must not perturb the simulation — every headline
// metric matches the unguarded run exactly.
func TestMetamorphicRecordIsPassive(t *testing.T) {
	plainCfg := guardedConfig()
	plain, err := New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := plain.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	recCfg := guardedConfig()
	recCfg.Invariants = invariant.Record
	rec, err := New(recCfg)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rec.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Events != rres.Events || pres.Throughput != rres.Throughput ||
		pres.MaxQueueBits != rres.MaxQueueBits || pres.DroppedFrames != rres.DroppedFrames ||
		pres.CPSamples != rres.CPSamples {
		t.Errorf("observer changed the run:\nplain  %+v\nrecord %+v", pres, rres)
	}
}
