package linear

import (
	"math"
	"testing"
	"testing/quick"

	"bcnphase/internal/core"
)

func TestRouthHurwitz2(t *testing.T) {
	cases := []struct {
		m, n float64
		want bool
	}{
		{1, 1, true},
		{0.001, 1e9, true},
		{0, 1, false},
		{1, 0, false},
		{-1, 1, false},
		{1, -1, false},
	}
	for _, c := range cases {
		if got := RouthHurwitz2(c.m, c.n); got != c.want {
			t.Errorf("RouthHurwitz2(%v, %v) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

func TestSubsystemStableAlwaysForValidParams(t *testing.T) {
	p := core.PaperExample()
	if !SubsystemStable(&p, core.Increase) || !SubsystemStable(&p, core.Decrease) {
		t.Error("valid params must yield Hurwitz subsystems (Proposition 1)")
	}
}

// TestComparePaperExample demonstrates the paper's headline disagreement:
// the linear criterion declares the BDP-buffered example stable while the
// trajectory overflows.
func TestComparePaperExample(t *testing.T) {
	v, err := Compare(core.PaperExample())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !v.LinearStable {
		t.Error("baseline should declare stability")
	}
	if v.Theorem1OK {
		t.Error("Theorem 1 should fail at BDP buffer")
	}
	if v.TrajectoryStable {
		t.Error("trajectory should overflow")
	}
	if v.Outcome != core.OutcomeOverflow {
		t.Errorf("Outcome = %v, want overflow", v.Outcome)
	}
	if !v.Disagreement {
		t.Error("expected the linear/strong-stability disagreement")
	}
}

func TestCompareAmpleBuffer(t *testing.T) {
	p := core.PaperExample()
	p.B = core.Theorem1Bound(p) * 1.05
	v, err := Compare(p)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !v.LinearStable || !v.Theorem1OK || !v.TrajectoryStable {
		t.Errorf("all criteria should pass: %+v", v)
	}
	if v.Disagreement {
		t.Error("no disagreement expected")
	}
}

func TestCompareInvalidParams(t *testing.T) {
	if _, err := Compare(core.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestQuickLinearAlwaysStable: for random valid parameters the baseline
// criterion is always "stable" — the content of Proposition 1.
func TestQuickLinearAlwaysStable(t *testing.T) {
	prop := func(giRaw, gdRaw, nRaw uint8) bool {
		p := core.PaperExample()
		p.Gi = 0.25 + float64(giRaw)/8
		p.Gd = 1.0 / (1 + float64(gdRaw))
		p.N = 1 + int(nRaw)
		return SubsystemStable(&p, core.Increase) && SubsystemStable(&p, core.Decrease)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCompareMatchesSampledSolve holds Compare's engine to the sampled
// core.Solve it replaced, on the points the stabmap and theorem1
// experiments ask about: the 9×10 log grid at B = 5·q0 and the BDP and
// 1.02× Theorem 1 buffers of the paper example.
func TestCompareMatchesSampledSolve(t *testing.T) {
	logspace := func(lo, hi float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		}
		return out
	}
	var points []core.Params
	base := core.FigureExample()
	base.B = 5 * base.Q0
	for _, gi := range logspace(0.05, 12.8, 9) {
		for _, gd := range logspace(1.0/1024, 0.5, 10) {
			p := base
			p.Gi, p.Gd = gi, gd
			points = append(points, p)
		}
	}
	paper := core.PaperExample()
	for _, b := range []float64{5e6, core.Theorem1Bound(paper) * 1.02} {
		p := paper
		p.B = b
		points = append(points, p)
	}
	outcomes := map[core.Outcome]int{}
	for _, p := range points {
		v, err := Compare(p)
		if err != nil {
			t.Fatalf("Compare(Gi=%g Gd=%g B=%g): %v", p.Gi, p.Gd, p.B, err)
		}
		tr, err := core.Solve(p, core.SolveOptions{})
		if err != nil {
			t.Fatalf("core.Solve(Gi=%g Gd=%g B=%g): %v", p.Gi, p.Gd, p.B, err)
		}
		if v.Outcome != tr.Outcome || v.TrajectoryStable != tr.Outcome.StronglyStable() {
			t.Errorf("Gi=%g Gd=%g B=%g: Compare says %v (strongly stable %v), core.Solve %v",
				p.Gi, p.Gd, p.B, v.Outcome, v.TrajectoryStable, tr.Outcome)
		}
		outcomes[v.Outcome]++
	}
	// The grid must reach both sides of the verdict, or agreement
	// shows nothing.
	if outcomes[core.OutcomeConverged] == 0 || outcomes[core.OutcomeOverflow] == 0 {
		t.Errorf("outcome mix %v: want converged and overflow points", outcomes)
	}
}
