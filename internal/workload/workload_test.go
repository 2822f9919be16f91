package workload

import (
	"testing"

	"bcnphase/internal/core"
	"bcnphase/internal/netsim"
)

func TestFromParams(t *testing.T) {
	p := core.PaperExample()
	cfg, err := FromParams(p, 2)
	if err != nil {
		t.Fatalf("FromParams: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("derived config invalid: %v", err)
	}
	if cfg.N != p.N || cfg.Capacity != p.C || cfg.Q0 != p.Q0 || cfg.BufferBits != p.B {
		t.Errorf("fields not carried over: %+v", cfg)
	}
	if cfg.InitialRate != 2*p.C/float64(p.N) {
		t.Errorf("InitialRate = %v", cfg.InitialRate)
	}
	if _, err := FromParams(core.Params{}, 2); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := FromParams(p, 0); err == nil {
		t.Error("zero overload factor accepted")
	}
}

func TestIncast(t *testing.T) {
	cfg, err := Incast(16, 1e9, 2e6, 1e-3)
	if err != nil {
		t.Fatalf("Incast: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("incast config invalid: %v", err)
	}
	if len(cfg.StartTimes) != 16 {
		t.Fatalf("StartTimes len = %d", len(cfg.StartTimes))
	}
	if cfg.StartTimes[0] != 0 || cfg.StartTimes[15] != netsim.FromSeconds(1e-3) {
		t.Errorf("stagger window wrong: first=%d last=%d", cfg.StartTimes[0], cfg.StartTimes[15])
	}
	for i := 1; i < len(cfg.StartTimes); i++ {
		if cfg.StartTimes[i] < cfg.StartTimes[i-1] {
			t.Fatal("start times not monotone")
		}
	}
	if _, err := Incast(0, 1e9, 2e6, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Incast(4, -1, 2e6, 0); err == nil {
		t.Error("bad capacity accepted")
	}
	if _, err := Incast(4, 1e9, 2e6, -1); err == nil {
		t.Error("negative window accepted")
	}
}

func TestIncastRuns(t *testing.T) {
	cfg, err := Incast(8, 1e9, 2e6, 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The line-rate burst must actually congest the bottleneck...
	if res.MaxQueueBits < cfg.Q0 {
		t.Errorf("incast never congested: maxQ = %v", res.MaxQueueBits)
	}
	// ...and BCN must engage.
	if res.NegMessages == 0 {
		t.Error("no negative feedback during incast")
	}
}

func TestValidationScenario(t *testing.T) {
	cfg, p := ValidationScenario()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("validation config invalid: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("validation params invalid: %v", err)
	}
	// The scenario and the fluid params must agree on the control knobs.
	if cfg.Q0 != p.Q0 || cfg.Pm != p.Pm || cfg.Gi != p.Gi || cfg.Gd != p.Gd || cfg.W != p.W {
		t.Errorf("scenario/params mismatch: %+v vs %+v", cfg, p)
	}
	// Premise: the fluid case must be the oscillatory Case 1 so the
	// validation sees the interesting dynamics.
	if p.Case() != core.Case1 {
		t.Errorf("validation params are %v, want Case1", p.Case())
	}
}
