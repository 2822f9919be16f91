package qcn

import (
	"math"
	"testing"
	"testing/quick"

	"bcnphase/internal/bcn"
)

func validCPConfig() CPConfig {
	return CPConfig{
		CPID: 1, SA: bcn.MAC{2, 0, 0, 0, 0, 1},
		Qeq: 1e5, W: 2, Pm: 0.1,
	}
}

func TestCPConfigValidate(t *testing.T) {
	good := validCPConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*CPConfig){
		func(c *CPConfig) { c.CPID = 0 },
		func(c *CPConfig) { c.Qeq = 0 },
		func(c *CPConfig) { c.W = -1 },
		func(c *CPConfig) { c.Pm = 0 },
		func(c *CPConfig) { c.Pm = 1.5 },
	}
	for i, mut := range muts {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCongestionPointNegativeOnly(t *testing.T) {
	cfg := validCPConfig()
	cfg.Pm = 1
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Under-reference queue: raw feedback positive → no message.
	m := cp.OnArrival(bcn.Arrival{SizeBits: 1e4})
	if m != nil {
		t.Fatalf("positive feedback emitted a message: %+v", m)
	}
	// Grow the queue well above Qeq: negative feedback.
	m = cp.OnArrival(bcn.Arrival{SizeBits: 5e5})
	if m == nil || m.Sigma >= 0 {
		t.Fatalf("expected negative message, got %+v", m)
	}
	samples, pos, neg := cp.Stats()
	if samples != 2 || pos != 0 || neg != 1 {
		t.Errorf("stats = %d/%d/%d", samples, pos, neg)
	}
	if cp.Severe() {
		t.Error("QCN CP should never report severe")
	}
}

func TestCongestionPointQuantization(t *testing.T) {
	cfg := validCPConfig()
	cfg.Pm = 1
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Saturating overload: the quantized |fb| must cap at FbMax.
	m := cp.OnArrival(bcn.Arrival{SizeBits: 1e9})
	if m == nil {
		t.Fatal("no message under extreme overload")
	}
	fb := -m.Sigma / cp.Scale()
	if math.Abs(fb-FbMax) > 1e-9 {
		t.Errorf("fb = %v, want saturation at %d", fb, FbMax)
	}
	// The wire value is always an integer multiple of the scale.
	if r := fb - math.Round(fb); math.Abs(r) > 1e-9 {
		t.Errorf("fb not integral: %v", fb)
	}
}

func TestCongestionPointDepartureClamp(t *testing.T) {
	cp, err := NewCongestionPoint(validCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	cp.OnArrival(bcn.Arrival{SizeBits: 1000})
	cp.OnDeparture(5000)
	if cp.QueueBits() != 0 {
		t.Errorf("queue = %v, want clamped at 0", cp.QueueBits())
	}
}

func validRPConfig() RPConfig {
	return DefaultRPConfig(1e6, 1e9, 1e4)
}

func TestRPConfigValidate(t *testing.T) {
	good := validRPConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*RPConfig){
		func(c *RPConfig) { c.GdQ = 0 },
		func(c *RPConfig) { c.GdQ = 1.0 / 32 }, // GdQ*63 >= 1
		func(c *RPConfig) { c.BCLimit = 0 },
		func(c *RPConfig) { c.FastRecoveryCycles = 0 },
		func(c *RPConfig) { c.RAI = 0 },
		func(c *RPConfig) { c.MinRate = 0 },
		func(c *RPConfig) { c.MaxRate = c.MinRate },
		func(c *RPConfig) { c.FbScale = 0 },
	}
	for i, mut := range muts {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewRateRegulator(good, 0); err == nil {
		t.Error("initial rate below MinRate accepted")
	}
}

func TestRateRegulatorDecrease(t *testing.T) {
	rp, err := NewRateRegulator(validRPConfig(), 5e8)
	if err != nil {
		t.Fatal(err)
	}
	// fb = 32 units → rate *= 1 − 32/128 = 0.75.
	rp.OnMessage(&bcn.Message{CPID: 9, Sigma: -32 * 1e4}, 0)
	if got, want := rp.Rate(0), 5e8*0.75; math.Abs(got-want) > 1e-6 {
		t.Errorf("rate = %v, want %v", got, want)
	}
	if rp.target != 5e8 {
		t.Errorf("target = %v, want pre-decrease rate", rp.target)
	}
	if rp.Tag() != 9 {
		t.Errorf("tag = %v", rp.Tag())
	}
	// Positive sigma must be ignored.
	before := rp.Rate(0)
	rp.OnMessage(&bcn.Message{Sigma: 1e5}, 1)
	if rp.Rate(0) != before {
		t.Error("positive message changed the rate")
	}
}

func TestFastRecoveryConvergesToTarget(t *testing.T) {
	cfg := validRPConfig()
	rp, err := NewRateRegulator(cfg, 8e8)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(&bcn.Message{Sigma: -63 * cfg.FbScale}, 0)
	dropped := rp.Rate(0)
	if dropped >= 8e8 {
		t.Fatal("no decrease applied")
	}
	// Five byte-counter cycles of Fast Recovery halve the gap each time.
	gap := 8e8 - dropped
	for i := 0; i < cfg.FastRecoveryCycles; i++ {
		rp.OnSend(cfg.BCLimit)
		gap /= 2
		if got := 8e8 - rp.Rate(0); math.Abs(got-gap) > 1 {
			t.Fatalf("cycle %d: gap = %v, want %v", i+1, got, gap)
		}
	}
	// Active Increase then probes above the old target.
	rp.OnSend(cfg.BCLimit)
	if rp.target <= 8e8 {
		t.Errorf("target = %v, want above the pre-decrease rate", rp.target)
	}
	if rp.cycles != cfg.FastRecoveryCycles+1 {
		t.Errorf("cycles = %d", rp.cycles)
	}
}

func TestActiveIncreaseReachesLineRate(t *testing.T) {
	cfg := validRPConfig()
	cfg.MaxRate = 1e8
	rp, err := NewRateRegulator(cfg, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(&bcn.Message{Sigma: -10 * cfg.FbScale}, 0)
	for i := 0; i < 200; i++ {
		rp.OnSend(cfg.BCLimit)
	}
	if got := rp.Rate(0); got != cfg.MaxRate {
		t.Errorf("rate = %v, want saturated at MaxRate", got)
	}
}

func TestPartialByteCounterAccumulates(t *testing.T) {
	cfg := validRPConfig()
	rp, err := NewRateRegulator(cfg, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(&bcn.Message{Sigma: -16 * cfg.FbScale}, 0)
	r0 := rp.Rate(0)
	// Three quarter-cycles: no boundary crossed yet.
	rp.OnSend(cfg.BCLimit / 4)
	rp.OnSend(cfg.BCLimit / 4)
	rp.OnSend(cfg.BCLimit / 4)
	if rp.Rate(0) != r0 {
		t.Error("rate changed before a full byte-counter cycle")
	}
	// One more quarter completes the cycle.
	rp.OnSend(cfg.BCLimit / 4)
	if rp.Rate(0) <= r0 {
		t.Error("rate did not recover after a full cycle")
	}
}

// TestQuickRateBounded: the regulator never leaves [MinRate, MaxRate]
// under arbitrary message/send interleavings.
func TestQuickRateBounded(t *testing.T) {
	cfg := validRPConfig()
	prop := func(ops []uint16) bool {
		rp, err := NewRateRegulator(cfg, 5e8)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if op%3 == 0 {
				fb := float64(op%64) + 1
				rp.OnMessage(&bcn.Message{Sigma: -fb * cfg.FbScale}, 0)
			} else {
				rp.OnSend(float64(op) * 1000)
			}
			r := rp.Rate(0)
			if r < cfg.MinRate || r > cfg.MaxRate {
				return false
			}
			if rp.target > cfg.MaxRate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRecoveryMonotone: after a single decrease, successive cycles
// never reduce the rate.
func TestQuickRecoveryMonotone(t *testing.T) {
	cfg := validRPConfig()
	prop := func(fbRaw uint8, nCycles uint8) bool {
		rp, err := NewRateRegulator(cfg, 5e8)
		if err != nil {
			return false
		}
		fb := float64(fbRaw%63) + 1
		rp.OnMessage(&bcn.Message{Sigma: -fb * cfg.FbScale}, 0)
		prev := rp.Rate(0)
		for i := 0; i < int(nCycles%32); i++ {
			rp.OnSend(cfg.BCLimit)
			cur := rp.Rate(0)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
