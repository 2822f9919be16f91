package core

import (
	"errors"
	"math"
	"testing"
)

func TestPaperExampleValid(t *testing.T) {
	p := PaperExample()
	if err := p.Validate(); err != nil {
		t.Fatalf("PaperExample invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := PaperExample()
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero N", func(p *Params) { p.N = 0 }},
		{"negative N", func(p *Params) { p.N = -1 }},
		{"zero C", func(p *Params) { p.C = 0 }},
		{"inf C", func(p *Params) { p.C = math.Inf(1) }},
		{"zero Ru", func(p *Params) { p.Ru = 0 }},
		{"zero Gi", func(p *Params) { p.Gi = 0 }},
		{"negative Gd", func(p *Params) { p.Gd = -1 }},
		{"zero W", func(p *Params) { p.W = 0 }},
		{"zero Pm", func(p *Params) { p.Pm = 0 }},
		{"Pm above one", func(p *Params) { p.Pm = 1.5 }},
		{"zero Q0", func(p *Params) { p.Q0 = 0 }},
		{"NaN Q0", func(p *Params) { p.Q0 = math.NaN() }},
		{"B below Q0", func(p *Params) { p.B = p.Q0 / 2 }},
		{"Qsc below Q0", func(p *Params) { p.Qsc = p.Q0 / 2 }},
		{"Qsc above B", func(p *Params) { p.Qsc = p.B * 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.mut(&p)
			if err := p.Validate(); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("Validate() = %v, want ErrInvalidParams", err)
			}
		})
	}
}

func TestDerivedCoefficients(t *testing.T) {
	p := PaperExample()
	if got, want := p.A(), 8e6*4*50; got != want {
		t.Errorf("A() = %v, want %v", got, want)
	}
	if got, want := p.Bcoef(), 1.0/128; got != want {
		t.Errorf("Bcoef() = %v, want %v", got, want)
	}
	if got, want := p.K(), 2.0/(0.01*10e9); math.Abs(got-want) > 1e-18 {
		t.Errorf("K() = %v, want %v", got, want)
	}
	// Thresholds: 4·pm²C²/w² = 1e16 and 4·pm²C/w² = 1e6 at the paper's
	// values.
	if got := p.AThreshold(); math.Abs(got-1e16)/1e16 > 1e-12 {
		t.Errorf("AThreshold() = %v, want 1e16", got)
	}
	if got := p.BThreshold(); math.Abs(got-1e6)/1e6 > 1e-12 {
		t.Errorf("BThreshold() = %v, want 1e6", got)
	}
}

func TestSigmaSignConvention(t *testing.T) {
	p := PaperExample()
	// Empty queue, rate at capacity: σ = q0 > 0 (increase).
	if s := p.Sigma(-p.Q0, 0); math.Abs(s-p.Q0) > 1e-9 {
		t.Errorf("Sigma(-q0, 0) = %v, want q0", s)
	}
	// Above-reference queue at equilibrium rate: σ < 0 (decrease).
	if s := p.Sigma(p.Q0, 0); s >= 0 {
		t.Errorf("Sigma(q0, 0) = %v, want negative", s)
	}
	if got := p.RegionAt(-p.Q0, 0); got != Increase {
		t.Errorf("RegionAt(-q0, 0) = %v, want Increase", got)
	}
	if got := p.RegionAt(p.Q0, 0); got != Decrease {
		t.Errorf("RegionAt(q0, 0) = %v, want Decrease", got)
	}
	// Exactly on the line: direction decided by y (σ̇ = −y).
	k := p.K()
	if got := p.RegionAt(-k*5, 5); got != Decrease {
		t.Errorf("on-line with y>0 = %v, want Decrease", got)
	}
	if got := p.RegionAt(k*5, -5); got != Increase {
		t.Errorf("on-line with y<0 = %v, want Increase", got)
	}
}

// caseParams builds parameter sets landing in each of the paper's cases.
// Scaled-down values (C = 1 Gbps, pm = 1e-5) keep the node regimes
// physically plausible: thresholds are Ta = 1e8 and Tb = 0.1.
func caseParams(c CaseKind) Params {
	base := Params{
		N: 10, C: 1e9, Ru: 8e6, Gi: 4, Gd: 0.01, W: 2, Pm: 1e-5,
		Q0: 1e5, B: 4e6,
	}
	switch c {
	case Case1:
		base.N = 1
		base.Gi = 1
		base.Ru = 1e6 // a = 1e6 < 1e8
		base.Gd = 0.01
	case Case2:
		// a = 8e6·4·10 = 3.2e8 > 1e8; Gd = 0.01 < 0.1.
	case Case3:
		base.N = 2
		base.Gi = 1
		base.Ru = 1e6 // a = 2e6 < 1e8
		base.Gd = 0.5 // > 0.1
	case Case4:
		base.Gd = 0.5 // a = 3.2e8 > 1e8, Gd > 0.1
	case Case5:
		base.N = 1
		base.Gi = 1
		base.Gd = 0.5
	}
	if c == Case5 {
		base.Ru = base.AThreshold() // a == threshold exactly
	}
	return base
}

func TestCaseClassification(t *testing.T) {
	paper := PaperExample()
	if got := paper.Case(); got != Case1 {
		t.Errorf("paper example Case() = %v, want Case1", got)
	}
	for _, want := range []CaseKind{Case1, Case2, Case3, Case4, Case5} {
		p := caseParams(want)
		if err := p.Validate(); err != nil {
			t.Fatalf("caseParams(%v) invalid: %v", want, err)
		}
		if got := p.Case(); got != want {
			t.Errorf("caseParams(%v).Case() = %v", want, got)
		}
	}
}

func TestCaseStrings(t *testing.T) {
	for _, c := range []CaseKind{Case1, Case2, Case3, Case4, Case5, CaseKind(99)} {
		if c.String() == "" {
			t.Errorf("empty String for %d", int(c))
		}
	}
	for _, r := range []Region{Increase, Decrease, Region(99)} {
		if r.String() == "" {
			t.Errorf("empty String for region %d", int(r))
		}
	}
}

func TestRegionLinear(t *testing.T) {
	p := PaperExample()
	li := p.RegionLinear(Increase)
	if want := p.K() * p.A(); math.Abs(li.M-want)/want > 1e-12 {
		t.Errorf("increase M = %v, want k·a = %v", li.M, want)
	}
	if li.N != p.A() {
		t.Errorf("increase N = %v, want a = %v", li.N, p.A())
	}
	ld := p.RegionLinear(Decrease)
	if want := p.Gd * p.C; ld.N != want {
		t.Errorf("decrease N = %v, want Gd·C = %v", ld.N, want)
	}
	// m = k·n identity (paper eq. 35).
	if want := p.K() * ld.N; math.Abs(ld.M-want)/want > 1e-12 {
		t.Errorf("decrease M = %v, want k·n = %v", ld.M, want)
	}
}

func TestWarmupTime(t *testing.T) {
	p := PaperExample()
	// T0 = (C − Nμ)/(a·q0).
	mu := 100e6 // 100 Mbps per source; aggregate 5 Gbps
	got, err := p.WarmupTime(mu)
	if err != nil {
		t.Fatalf("WarmupTime: %v", err)
	}
	want := (p.C - float64(p.N)*mu) / (p.A() * p.Q0)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("WarmupTime = %v, want %v", got, want)
	}
	if _, err := p.WarmupTime(-1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := p.WarmupTime(p.C); err == nil {
		t.Error("aggregate above capacity accepted")
	}
	// Zero initial rate is the longest warm-up.
	t0, err := p.WarmupTime(0)
	if err != nil {
		t.Fatalf("WarmupTime(0): %v", err)
	}
	if t0 <= got {
		t.Errorf("warm-up from zero (%v) should exceed warm-up from %v (%v)", t0, mu, got)
	}
}

func TestCoordinateConversions(t *testing.T) {
	p := PaperExample()
	q, r := p.ShiftedToRaw(-p.Q0, 0)
	if q != 0 || math.Abs(r-p.C/float64(p.N)) > 1e-9 {
		t.Errorf("ShiftedToRaw(-q0, 0) = (%v, %v)", q, r)
	}
	x, y := p.RawToShifted(q, r)
	if math.Abs(x+p.Q0) > 1e-9 || math.Abs(y) > 1e-3 {
		t.Errorf("round-trip = (%v, %v)", x, y)
	}
}
