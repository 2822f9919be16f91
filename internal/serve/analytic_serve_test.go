package serve

import (
	"context"
	"strings"
	"testing"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/invariant"
)

// TestSpecKeySeparatesEngines: a solve computed by the analytic engine
// reports exact extrema, one computed by the sampled solver reports
// sampled ones — the cached artifacts differ, so the dedup key must too.
func TestSpecKeySeparatesEngines(t *testing.T) {
	on := solveSpec()
	off := solveSpec()
	off.Analytic = "off"
	kOn, err := on.Key()
	if err != nil {
		t.Fatal(err)
	}
	kOff, err := off.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kOn == kOff {
		t.Error("analytic on and off share a dedup key")
	}
	explicit := solveSpec()
	explicit.Analytic = "on"
	if kExp, _ := explicit.Key(); kExp != kOn {
		t.Error(`analytic "" and "on" hash differently`)
	}
}

// TestSpecKeyAutoIsOn: "auto" is only a spelling of "on", so both map
// to one dedup key and one cached artifact.
func TestSpecKeyAutoIsOn(t *testing.T) {
	on, auto := solveSpec(), solveSpec()
	on.Analytic, auto.Analytic = "on", "auto"
	kOn, err := on.Key()
	if err != nil {
		t.Fatal(err)
	}
	kAuto, err := auto.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kAuto != kOn {
		t.Error(`analytic "auto" and "on" hash differently`)
	}
}

// TestSpecRejectsBadAnalytic and shard-level analytic: shard jobs carry
// the engine choice inside the grid (part of the grid fingerprint); a
// spec-level override would desynchronize shards of one sweep.
func TestSpecRejectsBadAnalytic(t *testing.T) {
	sp := solveSpec()
	sp.Analytic = "fast"
	if err := sp.Validate(); err == nil {
		t.Error(`analytic "fast" accepted`)
	}
	body := `{"kind":"solve","analytic":"fast","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`
	if _, err := DecodeSpec(strings.NewReader(body), 0); err == nil {
		t.Error("decode accepted a bogus analytic mode")
	}
	shard := `{"kind":"shard","analytic":"on","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"points":[{"gi":0.05,"gd":0.001}]}}`
	if _, err := DecodeSpec(strings.NewReader(shard), 0); err == nil {
		t.Error("decode accepted a spec-level analytic mode on a shard job")
	}
}

// TestRunSolveEngineSelection: the analytic path stamps the artifact
// with the engine that produced it and agrees with the classic path on
// every verdict field; a checked invariant policy forces the classic
// path even when the engine is on.
func TestRunSolveEngineSelection(t *testing.T) {
	s := solveSpec().Solve
	jm := newJobMetrics(nil)
	fast, err := runSolve(s, invariant.Off, analytic.ModeOn, jm)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Engine != "analytic" && fast.Engine != "rk45" {
		t.Errorf("analytic result engine tag %q", fast.Engine)
	}
	slow, err := runSolve(s, invariant.Off, analytic.ModeOff, jm)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Engine != "" {
		t.Errorf("classic result carries engine tag %q", slow.Engine)
	}
	if fast.Outcome != slow.Outcome || fast.Case != slow.Case ||
		fast.StronglyStable != slow.StronglyStable ||
		fast.LinearStable != slow.LinearStable ||
		fast.Theorem1OK != slow.Theorem1OK {
		t.Errorf("engines disagree: analytic %+v classic %+v", fast, slow)
	}
	checked, err := runSolve(s, invariant.Record, analytic.ModeOn, jm)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Engine != "" {
		t.Errorf("record policy still took the analytic path (engine %q)", checked.Engine)
	}
}

// TestRunSweepEnginesAgree: the batched analytic sweep and the classic
// per-point sweep must produce the same stable count and row count.
func TestRunSweepEnginesAgree(t *testing.T) {
	s := sweepSpec().Sweep
	jm := newJobMetrics(nil)
	ctx := context.Background()
	fast, err := runSweep(ctx, s, invariant.Off, analytic.ModeOn, jm)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := runSweep(ctx, s, invariant.Off, analytic.ModeOff, jm)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Points != slow.Points || fast.Failed != 0 || slow.Failed != 0 {
		t.Errorf("sweep shapes differ: analytic %d/%d failed, classic %d/%d failed",
			fast.Points, fast.Failed, slow.Points, slow.Failed)
	}
	if len(fast.Rows) != len(slow.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(fast.Rows), len(slow.Rows))
	}
	// Verdict columns (gi, gd, outcome, strongly_stable) must match
	// row for row; max_q_bits may differ by sampling resolution only.
	for i := range fast.Rows {
		ff := strings.SplitN(fast.Rows[i], ",", 5)
		sf := strings.SplitN(slow.Rows[i], ",", 5)
		if ff[0] != sf[0] || ff[1] != sf[1] || ff[2] != sf[2] || ff[3] != sf[3] {
			t.Errorf("row %d: analytic %q classic %q", i, fast.Rows[i], slow.Rows[i])
		}
	}
}

// TestRunShardUsesGridEngine: shard execution honors the grid's engine
// field and produces rows identical to direct grid evaluation.
func TestRunShardUsesGridEngine(t *testing.T) {
	grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 3}
	pts := grid.Points()[:4]
	res, err := runShard(context.Background(), &cluster.ShardSpec{Grid: grid, Points: pts}, newJobMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(pts) {
		t.Fatalf("shard returned %d rows for %d points", len(res.Rows), len(pts))
	}
	for i, pt := range pts {
		want, err := grid.Eval(context.Background(), pt, cluster.EvalMetrics{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[i] != want {
			t.Errorf("point %+v: shard row %+v, direct row %+v", pt, res.Rows[i], want)
		}
	}
}
