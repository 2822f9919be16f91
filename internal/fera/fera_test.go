package fera

import (
	"math"
	"testing"
	"testing/quick"

	"bcnphase/internal/bcn"
)

func validCPConfig() CPConfig {
	return CPConfig{
		CPID: 1, SA: bcn.MAC{2, 0, 0, 0, 0, 1},
		Capacity: 1e9, Pm: 1,
	}
}

func TestCPConfigValidate(t *testing.T) {
	good := validCPConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*CPConfig){
		func(c *CPConfig) { c.CPID = 0 },
		func(c *CPConfig) { c.Capacity = 0 },
		func(c *CPConfig) { c.TargetUtilization = 1.5 },
		func(c *CPConfig) { c.IntervalBits = -1 },
		func(c *CPConfig) { c.Pm = 0 },
		func(c *CPConfig) { c.Pm = 2 },
	}
	for i, mut := range muts {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestAdvertisedFairShare(t *testing.T) {
	cfg := validCPConfig()
	cfg.IntervalBits = 1e5
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct sources fill one measurement window.
	srcs := []bcn.MAC{{1}, {2}, {3}}
	for i := 0; i < 12; i++ {
		cp.OnArrival(bcn.Arrival{SizeBits: 1e4, Src: srcs[i%3]})
	}
	want := 1e9 * DefaultTargetUtilization / 3
	if got := cp.Advertised(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("advertised = %v, want fair share %v", got, want)
	}
	samples, pos, neg := cp.Stats()
	if samples == 0 || pos == 0 {
		t.Error("no advertisements sent at pm=1")
	}
	if neg != 0 {
		t.Error("FERA must not send negative messages")
	}
	if cp.Severe() {
		t.Error("FERA CP should not report severe")
	}
}

func TestOverloadZMeasured(t *testing.T) {
	cfg := validCPConfig()
	cfg.IntervalBits = 1e5
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals twice the departures: z ≈ 2 after a window (the last
	// arrival closes the window before its departure is counted, so
	// the estimate is slightly above 2).
	for i := 0; i < 10; i++ {
		cp.OnArrival(bcn.Arrival{SizeBits: 1e4, Src: bcn.MAC{1}})
		cp.OnDeparture(5e3)
	}
	if z := cp.OverloadZ(); z < 1.8 || z > 2.3 {
		t.Errorf("overload z = %v, want ~2", z)
	}
}

func TestCongestionPointMessageFields(t *testing.T) {
	cfg := validCPConfig()
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := bcn.MAC{9}
	m := cp.OnArrival(bcn.Arrival{SizeBits: 1e4, Src: src})
	if m == nil {
		t.Fatal("no message at pm=1")
	}
	if m.DA != src || m.CPID != cfg.CPID || m.Sigma <= 0 {
		t.Errorf("message fields wrong: %+v", m)
	}
}

func TestQueueTracking(t *testing.T) {
	cp, err := NewCongestionPoint(validCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	cp.OnArrival(bcn.Arrival{SizeBits: 7000, Src: bcn.MAC{1}})
	if cp.QueueBits() != 7000 {
		t.Errorf("queue = %v", cp.QueueBits())
	}
	cp.OnDeparture(1e9)
	if cp.QueueBits() != 0 {
		t.Errorf("queue = %v, want clamped 0", cp.QueueBits())
	}
}

func TestRateRegulatorObeys(t *testing.T) {
	rp, err := NewRateRegulator(1e6, 1e9, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(&bcn.Message{CPID: 3, Sigma: 2.5e8}, 0)
	if rp.Rate(0) != 2.5e8 {
		t.Errorf("rate = %v, want the advertisement", rp.Rate(0))
	}
	if rp.Tag() != 3 {
		t.Errorf("tag = %v", rp.Tag())
	}
	if rp.Updates() != 1 {
		t.Errorf("updates = %v", rp.Updates())
	}
	// Advertisements clamp to the regulator bounds.
	rp.OnMessage(&bcn.Message{Sigma: 1e12}, 0)
	if rp.Rate(0) != 1e9 {
		t.Errorf("rate = %v, want clamped to max", rp.Rate(0))
	}
	rp.OnMessage(&bcn.Message{Sigma: 1}, 0)
	if rp.Rate(0) != 1e6 {
		t.Errorf("rate = %v, want clamped to min", rp.Rate(0))
	}
	// Non-positive sigma ignored.
	before := rp.Rate(0)
	rp.OnMessage(&bcn.Message{Sigma: -5}, 0)
	if rp.Rate(0) != before {
		t.Error("negative sigma changed the rate")
	}
	if _, err := NewRateRegulator(0, 1e9, 1e8); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewRateRegulator(1e6, 1e9, 1); err == nil {
		t.Error("initial rate below min accepted")
	}
}

func TestE2CMCongestionPointHybrid(t *testing.T) {
	cfg := bcn.CPConfig{
		CPID: 1, SA: bcn.MAC{2}, Q0: 1e5, W: 2, Pm: 1,
	}
	cp, err := NewE2CMCongestionPoint(cfg, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	src := bcn.MAC{7}
	// Overload: negative message passes through as BCN σ.
	m := cp.OnArrival(bcn.Arrival{SizeBits: 5e5, Src: src})
	if m == nil || m.Sigma >= 0 {
		t.Fatalf("expected negative message, got %+v", m)
	}
	// Drain below q0 with a matching RRT: the positive message carries
	// the advertisement (a rate, not a σ).
	cp.OnDeparture(4.5e5)
	m = cp.OnArrival(bcn.Arrival{SizeBits: 100, Src: src, RRT: cfg.CPID})
	if m == nil || m.Sigma <= 0 {
		t.Fatalf("expected positive advertisement, got %+v", m)
	}
	// The advertisement is a plausible rate (target capacity / flows).
	if m.Sigma > 1e9 {
		t.Errorf("advertisement %v above capacity", m.Sigma)
	}
	if cp.QueueBits() <= 0 {
		t.Error("queue tracking lost")
	}
	if _, err := NewE2CMCongestionPoint(cfg, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewE2CMCongestionPoint(bcn.CPConfig{}, 1e9); err == nil {
		t.Error("invalid BCN config accepted")
	}
}

func TestE2CMRegulator(t *testing.T) {
	rp, err := NewE2CMRegulator(1.0/128, 1e6, 1e9, 8e8)
	if err != nil {
		t.Fatal(err)
	}
	// Negative: BCN-style decrease on quantized units.
	rp.OnMessage(&bcn.Message{CPID: 2, Sigma: -10 * bcn.FBUnit}, 0)
	want := 8e8 * (1 - 10.0/128)
	if got := rp.Rate(0); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("decrease: rate = %v, want %v", got, want)
	}
	// Positive: half-way toward the advertisement.
	before := rp.Rate(0)
	rp.OnMessage(&bcn.Message{CPID: 2, Sigma: 4e8}, 0)
	want = 0.5 * (before + 4e8)
	if got := rp.Rate(0); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("advance: rate = %v, want %v", got, want)
	}
	if rp.Tag() != 2 {
		t.Errorf("tag = %v", rp.Tag())
	}
	// Zero sigma ignored.
	before = rp.Rate(0)
	rp.OnMessage(&bcn.Message{Sigma: 0}, 0)
	if rp.Rate(0) != before {
		t.Error("zero sigma changed the rate")
	}
	// Constructor validation.
	if _, err := NewE2CMRegulator(1, 1e6, 1e9, 1e8); err == nil {
		t.Error("gd too large accepted")
	}
	if _, err := NewE2CMRegulator(1.0/128, 1e9, 1e6, 1e8); err == nil {
		t.Error("reversed bounds accepted")
	}
	if _, err := NewE2CMRegulator(1.0/128, 1e6, 1e9, 1); err == nil {
		t.Error("initial below min accepted")
	}
}

// TestQuickRegulatorsBounded: both regulators stay within bounds for
// arbitrary message sequences.
func TestQuickRegulatorsBounded(t *testing.T) {
	prop := func(sigmas []int32, e2cm bool) bool {
		var rate func(float64) float64
		var apply func(*bcn.Message)
		if e2cm {
			rp, err := NewE2CMRegulator(1.0/128, 1e6, 1e9, 5e8)
			if err != nil {
				return false
			}
			rate = rp.Rate
			apply = func(m *bcn.Message) { rp.OnMessage(m, 0) }
		} else {
			rp, err := NewRateRegulator(1e6, 1e9, 5e8)
			if err != nil {
				return false
			}
			rate = rp.Rate
			apply = func(m *bcn.Message) { rp.OnMessage(m, 0) }
		}
		for _, s := range sigmas {
			apply(&bcn.Message{Sigma: float64(s) * 1e3})
			r := rate(0)
			if r < 1e6 || r > 1e9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
