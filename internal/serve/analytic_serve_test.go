package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
)

// TestSpecKeySeparatesEngines: a solve job under the off policy comes
// from the analytic engine (exact extrema), one under a checked policy
// from the sampled core.Solve (sampled extrema) — the cached artifacts
// differ, so the dedup keys must too. The policy names the engine, so
// the key needs no engine field of its own.
func TestSpecKeySeparatesEngines(t *testing.T) {
	keys := map[string]string{}
	for _, pol := range []string{"", "off", "record"} {
		sp := solveSpec()
		sp.Invariants = pol
		k, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[pol] = k
	}
	if keys[""] != keys["off"] {
		t.Error(`invariants "" and "off" hash differently`)
	}
	if keys["off"] == keys["record"] {
		t.Error("analytic (off) and sampled (record) solve jobs share a dedup key")
	}
}

// TestSpecRejectsBadAnalytic: the analytic knob is gone (artifact
// Format 5), so a spec that still names it, with any value and on any
// kind, is refused as an unknown field: ErrSpec from the decoder, 400
// from the handler.
func TestSpecRejectsBadAnalytic(t *testing.T) {
	const solve = `"solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}`
	bodies := []string{
		`{"kind":"solve","analytic":"on",` + solve + `}`,
		`{"kind":"solve","analytic":"off",` + solve + `}`,
		`{"kind":"solve","analytic":"auto",` + solve + `}`,
		`{"kind":"solve","invariants":"record","analytic":"",` + solve + `}`,
		`{"kind":"solve",` + solve + `,"analytic":"fast"}`,
		`{"kind":"sweep","analytic":"off","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"shard","analytic":"on","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3},"points":[{"gi":0.05,"gd":0.001}]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"analytic":"off"},"index":0,"points":[{"gi":0.05,"gd":0.001}]}}`,
	}
	_, ts := newTestServer(t, Config{})
	for _, body := range bodies {
		if _, err := DecodeSpec(strings.NewReader(body), 0); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: decode err = %v, want ErrSpec", body, err)
		}
		if resp := postSpec(t, ts.URL, []byte(body)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRunSolveEngineSelection: under the off policy a solve job comes
// from the analytic engine, stamped with the path that produced it, and
// agrees on every verdict field with the sampled core.Solve and with
// the RK45 oracle (analytic.ModeOff); a checked policy takes the
// sampled path, whose linear and Theorem 1 columns are linear.Compare's.
func TestRunSolveEngineSelection(t *testing.T) {
	s := solveSpec().Solve
	jm := newJobMetrics(nil)
	fast, err := runSolve(s, invariant.Off, jm)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Engine != "analytic" {
		t.Errorf("analytic result engine tag %q", fast.Engine)
	}
	checked, err := runSolve(s, invariant.Record, jm)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Engine != "" {
		t.Errorf("record policy still took the analytic path (engine %q)", checked.Engine)
	}
	tr, err := core.Solve(s.Params, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rk, err := analytic.SolveOne(s.Params, analytic.Options{Mode: analytic.ModeOff})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := linear.Compare(s.Params)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*SolveResult{fast, checked} {
		if r.Outcome != tr.Outcome.String() || r.Outcome != rk.Outcome.String() ||
			r.StronglyStable != tr.Outcome.StronglyStable() || r.Case != s.Params.Case().String() ||
			r.LinearStable != lin.LinearStable || r.Theorem1OK != lin.Theorem1OK ||
			r.Theorem1Bound != core.Theorem1Bound(s.Params) {
			t.Errorf("served %+v; core.Solve %v, rk45 %v, linear %+v", r, tr.Outcome, rk.Outcome, lin)
		}
	}
	if checked.MaxQueueBits != tr.MaxQueue() || checked.Rho != tr.Rho || checked.Crossings != len(tr.Crossings) {
		t.Errorf("checked solve %+v is not core.Solve's trajectory", checked)
	}
}

// TestRunSweepEnginesAgree: a served sweep is the map.csv of the grid
// its spec names, under any policy — the rows come from the same
// canonical evaluator as bcnsweep's and the cluster's.
func TestRunSweepEnginesAgree(t *testing.T) {
	s := sweepSpec().Sweep
	jm := newJobMetrics(nil)
	ctx := context.Background()
	for _, pol := range []invariant.Policy{invariant.Off, invariant.Record} {
		res, err := runSweep(ctx, s, pol, jm)
		if err != nil {
			t.Fatal(err)
		}
		grid := cluster.GainGrid{BOverQ0: s.BOverQ0, GiLo: s.GiLo, GiHi: s.GiHi, GdLo: s.GdLo, GdHi: s.GdHi,
			Steps: s.Steps, Invariants: pol.String()}
		pts := grid.Points()
		rows := make([]cluster.Row, len(pts))
		if err := grid.EvalBatch(ctx, pts, rows, cluster.EvalMetrics{}); err != nil {
			t.Fatal(err)
		}
		if res.Header != cluster.CSVHeader || res.Points != len(pts) || res.Failed != 0 || len(res.Rows) != len(rows) {
			t.Fatalf("%v: sweep shape %q %d points %d failed %d rows", pol, res.Header, res.Points, res.Failed, len(res.Rows))
		}
		for i, r := range rows {
			if res.Rows[i] != r.CSV {
				t.Errorf("%v row %d: served %q, grid %q", pol, i, res.Rows[i], r.CSV)
			}
		}
	}
}

// TestRunShardUsesGridEngine: shard execution produces rows identical
// to direct grid evaluation.
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
