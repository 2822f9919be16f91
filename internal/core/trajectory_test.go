package core

import (
	"math"
	"testing"
	"testing/quick"

	"bcnphase/internal/ode"
)

func TestSolvePaperExampleOverflows(t *testing.T) {
	// The paper example keeps the BDP buffer (5 Mbit) while Theorem 1
	// demands ~13.8 Mbit: the first-round overshoot must hit the
	// ceiling.
	tr, err := Solve(PaperExample(), SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if tr.Outcome != OutcomeOverflow {
		t.Fatalf("Outcome = %v, want overflow", tr.Outcome)
	}
	if tr.Outcome.StronglyStable() {
		t.Error("overflow must not be strongly stable")
	}
	p := PaperExample()
	// The trajectory must end exactly at the ceiling.
	if math.Abs(tr.EndX-(p.B-p.Q0)) > 1e-6*p.B {
		t.Errorf("EndX = %v, want B−q0 = %v", tr.EndX, p.B-p.Q0)
	}
	if got := tr.MaxQueue(); math.Abs(got-p.B) > 1e-6*p.B {
		t.Errorf("MaxQueue = %v, want B = %v", got, p.B)
	}
}

func TestSolveAmpleBufferConverges(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 1.05
	tr, err := Solve(p, SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if tr.Outcome != OutcomeConverged {
		t.Fatalf("Outcome = %v, want converged (rho=%v)", tr.Outcome, tr.Rho)
	}
	if !tr.Outcome.StronglyStable() {
		t.Error("converged must be strongly stable")
	}
	// The excursion must respect the strip and the Theorem 1 bound.
	if tr.MaxX >= p.B-p.Q0 {
		t.Errorf("MaxX = %v >= B−q0 = %v", tr.MaxX, p.B-p.Q0)
	}
	if tr.MinX <= -p.Q0 {
		t.Errorf("MinX = %v <= −q0", tr.MinX)
	}
	if q := tr.MaxQueue(); q >= Theorem1Bound(p)*1.0001 {
		t.Errorf("MaxQueue = %v exceeds Theorem 1 bound %v", q, Theorem1Bound(p))
	}
	// Weakly damped spirals: contraction ratio just below 1.
	if !(tr.Rho > 0.9 && tr.Rho < 1) {
		t.Errorf("Rho = %v, want in (0.9, 1)", tr.Rho)
	}
}

func TestSolveMatchesFirstRoundExtrema(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 1.05
	max1, min1, err := FirstRoundExtrema(p)
	if err != nil {
		t.Fatalf("FirstRoundExtrema: %v", err)
	}
	tr, err := Solve(p, SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// First recorded max/min extrema must match the closed forms.
	var gotMax, gotMin float64
	foundMax, foundMin := false, false
	for _, e := range tr.Extrema {
		if e.Max && !foundMax {
			gotMax, foundMax = e.X, true
		}
		if !e.Max && !foundMin {
			gotMin, foundMin = e.X, true
		}
		if foundMax && foundMin {
			break
		}
	}
	if !foundMax || !foundMin {
		t.Fatalf("extrema not recorded: %+v", tr.Extrema)
	}
	if math.Abs(gotMax-max1)/max1 > 1e-9 {
		t.Errorf("first max = %v, want %v", gotMax, max1)
	}
	if math.Abs(gotMin-min1)/math.Abs(min1) > 1e-9 {
		t.Errorf("first min = %v, want %v", gotMin, min1)
	}
}

func TestSolveCases3to5AlwaysStronglyStable(t *testing.T) {
	// Proposition 4: b ≥ threshold or a = threshold ⇒ strongly stable.
	for _, c := range []CaseKind{Case3, Case4, Case5} {
		p := caseParams(c)
		tr, err := Solve(p, SolveOptions{})
		if err != nil {
			t.Fatalf("%v: Solve: %v", c, err)
		}
		if !tr.Outcome.StronglyStable() {
			t.Errorf("%v: Outcome = %v, want strongly stable", c, tr.Outcome)
		}
		// No overshoot above the reference: the queue never exceeds
		// q0 (paper Figs. 9, 10: motion stays in the second
		// quadrant).
		if tr.MaxX > 1e-6*p.Q0 {
			t.Errorf("%v: MaxX = %v, want no overshoot above q0", c, tr.MaxX)
		}
	}
}

func TestSolveCase2(t *testing.T) {
	p := caseParams(Case2)
	p.B = Theorem1Bound(p) * 1.05
	tr, err := Solve(p, SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !tr.Outcome.StronglyStable() {
		t.Errorf("Outcome = %v, want strongly stable with ample buffer", tr.Outcome)
	}
	// Case 2 crosses the switching line (node arc cannot glide because
	// its eigenlines are steeper than the switching line: −1/k > λ2).
	if len(tr.Crossings) == 0 {
		t.Error("Case 2 trajectory must cross the switching line")
	}
	if tr.Segments[0].Kind != ArcNode {
		t.Errorf("first arc kind = %v, want node", tr.Segments[0].Kind)
	}
}

func TestSolveCase1SegmentsAlternate(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 1.05
	tr, err := Solve(p, SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(tr.Segments) < 3 {
		t.Fatalf("expected several segments, got %d", len(tr.Segments))
	}
	for i, s := range tr.Segments {
		if s.Kind != ArcSpiral {
			t.Errorf("segment %d kind = %v, want spiral (Case 1)", i, s.Kind)
		}
		wantRegion := Increase
		if i%2 == 1 {
			wantRegion = Decrease
		}
		if s.Region != wantRegion {
			t.Errorf("segment %d region = %v, want %v", i, s.Region, wantRegion)
		}
	}
	// Crossing points must lie on the switching line.
	k := p.K()
	for _, c := range tr.Crossings {
		if s := c.X + k*c.Y; math.Abs(s) > 1e-6*(math.Abs(c.X)+1) {
			t.Errorf("crossing (%v, %v) off the switching line: s=%v", c.X, c.Y, s)
		}
	}
}

func TestSolveTimeMonotone(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 1.05
	tr, err := Solve(p, SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := 1; i < len(tr.T); i++ {
		if tr.T[i] <= tr.T[i-1] {
			t.Fatalf("polyline time not strictly increasing at %d: %v then %v", i, tr.T[i-1], tr.T[i])
		}
	}
}

func TestSolveWarmup(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 1.05
	mu := 40e6 // 2 Gbps aggregate
	tr, err := Solve(p, SolveOptions{WarmupFromRate: &mu})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// The first polyline point is (−q0, Nμ−C).
	if tr.X[0] != -p.Q0 {
		t.Errorf("X[0] = %v, want −q0", tr.X[0])
	}
	wantY0 := float64(p.N)*mu - p.C
	if math.Abs(tr.Y[0]-wantY0) > 1e-6*p.C {
		t.Errorf("Y[0] = %v, want %v", tr.Y[0], wantY0)
	}
	// Warm-up duration T0 = (C − Nμ)/(a·q0).
	want, err := p.WarmupTime(mu)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Segments[0].Duration; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("warm-up duration = %v, want %v", got, want)
	}
	// During warm-up x stays pinned at −q0.
	for i := 0; i < len(tr.T) && tr.T[i] < want*0.999; i++ {
		if tr.X[i] != -p.Q0 {
			t.Errorf("warm-up sample %d left the boundary: x=%v", i, tr.X[i])
		}
	}
	if tr.Outcome != OutcomeConverged {
		t.Errorf("Outcome = %v, want converged", tr.Outcome)
	}

	bad := -1.0
	if _, err := Solve(p, SolveOptions{WarmupFromRate: &bad}); err == nil {
		t.Error("negative warm-up rate accepted")
	}
}

func TestSolveCustomStart(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 2
	start := [2]float64{p.Q0 / 2, 0} // above reference, rate at capacity
	tr, err := Solve(p, SolveOptions{Start: &start})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if tr.X[0] != start[0] || tr.Y[0] != start[1] {
		t.Errorf("start = (%v, %v), want (%v, %v)", tr.X[0], tr.Y[0], start[0], start[1])
	}
	if !tr.Outcome.StronglyStable() {
		t.Errorf("Outcome = %v", tr.Outcome)
	}
}

func TestSolveInvalidParams(t *testing.T) {
	if _, err := Solve(Params{}, SolveOptions{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSolveIgnoreBuffer(t *testing.T) {
	p := PaperExample() // would overflow with the buffer enforced
	tr, err := Solve(p, SolveOptions{IgnoreBuffer: true})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if tr.Outcome == OutcomeOverflow || tr.Outcome == OutcomeUnderflow {
		t.Errorf("buffer outcomes with IgnoreBuffer: %v", tr.Outcome)
	}
	// The unconstrained linearized system still contracts.
	if tr.Outcome != OutcomeConverged {
		t.Errorf("Outcome = %v, want converged", tr.Outcome)
	}
	if tr.MaxX <= p.B-p.Q0 {
		t.Errorf("unconstrained overshoot %v should exceed the small buffer %v", tr.MaxX, p.B-p.Q0)
	}
}

func TestSolveDisableShortCircuitFullDecay(t *testing.T) {
	p := PaperExample()
	p.B = Theorem1Bound(p) * 1.05
	tr, err := Solve(p, SolveOptions{
		DisableShortCircuit: true,
		ConvergeTol:         0.05,
		SamplesPerArc:       8,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if tr.Outcome != OutcomeConverged {
		t.Fatalf("Outcome = %v, want converged", tr.Outcome)
	}
	// Full decay takes many rounds at the paper's weak damping.
	if len(tr.Segments) < 10 {
		t.Errorf("expected many segments for full decay, got %d", len(tr.Segments))
	}
	// Final state inside the tolerance box.
	if math.Abs(tr.EndX) > 0.05*p.Q0*1.01 || math.Abs(tr.EndY) > 0.05*p.C*1.01 {
		t.Errorf("end state (%v, %v) outside tolerance", tr.EndX, tr.EndY)
	}
}

// TestSolveAgreesWithNonlinearODE: the stitched linearized trajectory must
// track the RK45 integration of the piecewise-linear field exactly, and
// the nonlinear fluid model closely while |y| ≪ C.
func TestSolveAgreesWithNonlinearODE(t *testing.T) {
	p := caseParams(Case1)
	p.B = Theorem1Bound(p) * 2
	tr, err := Solve(p, SolveOptions{DisableShortCircuit: true, ConvergeTol: 0.02})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	horizon := tr.EndT
	rhs := func(_ float64, y, dydt []float64) {
		u, v := p.LinearizedField()(y[0], y[1])
		dydt[0], dydt[1] = u, v
	}
	sol, err := ode.DormandPrince(rhs, 0, []float64{-p.Q0, 0}, horizon, ode.DefaultOptions())
	if err != nil {
		t.Fatalf("DormandPrince: %v", err)
	}
	// Compare at several interior instants.
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.95} {
		tt := horizon * frac
		y, err := sol.At(tt)
		if err != nil {
			t.Fatal(err)
		}
		// Interpolate the stitched polyline.
		xs, _ := interpPolyline(tr.T, tr.X, tt)
		if math.Abs(xs-y[0]) > 5e-3*p.Q0 {
			t.Errorf("t=%v: stitched x=%v vs integrated x=%v", tt, xs, y[0])
		}
	}
}

func interpPolyline(ts, xs []float64, t float64) (float64, bool) {
	if len(ts) == 0 {
		return 0, false
	}
	if t <= ts[0] {
		return xs[0], true
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] >= t {
			w := (t - ts[i-1]) / (ts[i] - ts[i-1])
			return (1-w)*xs[i-1] + w*xs[i], true
		}
	}
	return xs[len(xs)-1], true
}

// TestQuickTheorem1ImpliesStronglyStable is the paper's Theorem 1 as a
// property test: whenever the criterion holds, the stitched trajectory is
// strongly stable.
func TestQuickTheorem1ImpliesStronglyStable(t *testing.T) {
	prop := func(giRaw, gdRaw, nRaw, bRaw uint8) bool {
		p := PaperExample()
		p.Gi = 0.5 + float64(giRaw%16)
		p.Gd = 1.0 / (8 + float64(gdRaw%248))
		p.N = 1 + int(nRaw%100)
		p.B = Theorem1Bound(p) * (1.001 + float64(bRaw)/64)
		if !Theorem1Satisfied(p) {
			return true
		}
		tr, err := Solve(p, SolveOptions{})
		if err != nil {
			return false
		}
		return tr.Outcome.StronglyStable()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickExcursionWithinTheorem1Bound: the peak queue never exceeds the
// Theorem 1 bound when the system does not hit the buffer.
func TestQuickExcursionWithinTheorem1Bound(t *testing.T) {
	prop := func(giRaw, gdRaw, nRaw uint8) bool {
		p := PaperExample()
		p.Gi = 0.5 + float64(giRaw%16)
		p.Gd = 1.0 / (8 + float64(gdRaw%248))
		p.N = 1 + int(nRaw%100)
		p.B = Theorem1Bound(p) * 1.01
		tr, err := Solve(p, SolveOptions{})
		if err != nil {
			return false
		}
		if !tr.Outcome.StronglyStable() {
			return true // other properties cover this
		}
		return tr.MaxQueue() <= Theorem1Bound(p)*(1+1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	outcomes := []Outcome{
		OutcomeConverged, OutcomeOverflow, OutcomeUnderflow,
		OutcomeLimitCycle, OutcomeDiverging, OutcomeHorizon, Outcome(0),
	}
	for _, o := range outcomes {
		if o.String() == "" {
			t.Errorf("empty String for %d", int(o))
		}
	}
}

// TestQuickScaleInvariance: the linearized switched system is homogeneous
// of degree one, so scaling q0 and B by c scales the whole trajectory's x
// by c (with identical timing and outcome). This pins the stitching
// machinery against subtle scale bugs.
func TestQuickScaleInvariance(t *testing.T) {
	base := FigureExample()
	ref, err := Solve(base, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(cRaw uint8) bool {
		c := 0.25 + float64(cRaw)/64 // 0.25 .. 4.23
		p := base
		p.Q0 *= c
		p.B *= c
		// The thresholds depend only on (w, pm, C), and a, b are
		// unchanged, so the case classification is identical.
		tr, err := Solve(p, SolveOptions{})
		if err != nil {
			return false
		}
		if tr.Outcome != ref.Outcome {
			return false
		}
		relMax := math.Abs(tr.MaxX-c*ref.MaxX) / (c * math.Abs(ref.MaxX))
		relMin := math.Abs(tr.MinX-c*ref.MinX) / (c * math.Abs(ref.MinX))
		relEnd := math.Abs(tr.EndT-ref.EndT) / ref.EndT
		return relMax < 1e-9 && relMin < 1e-9 && relEnd < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickExtremaAlternate: recorded extrema strictly alternate between
// maxima and minima along any Case-1 trajectory.
func TestQuickExtremaAlternate(t *testing.T) {
	prop := func(giRaw, gdRaw uint8) bool {
		p := FigureExample()
		p.Gi = 0.1 + float64(giRaw%16)/8
		p.Gd = 1.0 / (32 + float64(gdRaw%224))
		p.B = 1e12
		if p.Case() != Case1 {
			return true
		}
		tr, err := Solve(p, SolveOptions{
			IgnoreBuffer: true, DisableShortCircuit: true, MaxArcs: 10,
		})
		if err != nil || len(tr.Extrema) < 2 {
			return err == nil
		}
		for i := 1; i < len(tr.Extrema); i++ {
			if tr.Extrema[i].Max == tr.Extrema[i-1].Max {
				return false
			}
			if tr.Extrema[i].T <= tr.Extrema[i-1].T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
