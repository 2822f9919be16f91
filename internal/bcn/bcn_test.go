package bcn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		DA:    MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		SA:    MAC{0x02, 0x00, 0x00, 0x00, 0xff, 0xfe},
		Flags: FlagSevere,
		CPID:  0xdeadbeef01,
		Sigma: -1.5e6,
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(data) != MessageLen {
		t.Fatalf("encoded %d bytes, want %d", len(data), MessageLen)
	}
	var got Message
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.DA != m.DA || got.SA != m.SA || got.Flags != m.Flags || got.CPID != m.CPID {
		t.Errorf("fields mismatch: %+v vs %+v", got, m)
	}
	// σ round-trips within the quantization step.
	if math.Abs(got.Sigma-m.Sigma) > FBUnit/2 {
		t.Errorf("sigma = %v, want %v ± %v", got.Sigma, m.Sigma, FBUnit/2)
	}
	if got.Positive() {
		t.Error("negative message misreported as positive")
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	var m Message
	if err := m.UnmarshalBinary(make([]byte, 10)); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short: err = %v", err)
	}
	data := make([]byte, MessageLen)
	if err := m.UnmarshalBinary(data); !errors.Is(err, ErrBadEtherType) {
		t.Errorf("bad ethertype: err = %v", err)
	}
}

// TestQuickMessageRoundTrip: arbitrary field values survive the wire.
func TestQuickMessageRoundTrip(t *testing.T) {
	prop := func(da, sa [6]byte, flags uint16, cpid uint64, sigmaRaw int32) bool {
		m := &Message{DA: MAC(da), SA: MAC(sa), Flags: flags, CPID: CPID(cpid), Sigma: float64(sigmaRaw)}
		data, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var got Message
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.DA == m.DA && got.SA == m.SA && got.Flags == m.Flags &&
			got.CPID == m.CPID && math.Abs(got.Sigma-m.Sigma) <= FBUnit/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeFBSaturates(t *testing.T) {
	if got := quantizeFB(1e30); got != math.MaxInt32 {
		t.Errorf("positive saturation = %v", got)
	}
	if got := quantizeFB(-1e30); got != math.MinInt32 {
		t.Errorf("negative saturation = %v", got)
	}
	if got := quantizeFB(FBUnit * 3); got != 3 {
		t.Errorf("quantizeFB(3 units) = %v", got)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xab, 0xcd, 0, 1, 2, 3}
	if got := m.String(); got != "ab:cd:00:01:02:03" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func validCPConfig() CPConfig {
	return CPConfig{
		CPID: 1, SA: MAC{2, 0, 0, 0, 0, 1},
		Q0: 1e5, Qsc: 8e5, W: 2, Pm: 0.01,
	}
}

func TestCPConfigValidate(t *testing.T) {
	good := validCPConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*CPConfig){
		func(c *CPConfig) { c.CPID = 0 },
		func(c *CPConfig) { c.Q0 = 0 },
		func(c *CPConfig) { c.Qsc = c.Q0 / 2 },
		func(c *CPConfig) { c.W = 0 },
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

func TestCongestionPointSamplingInterval(t *testing.T) {
	cfg := validCPConfig()
	cfg.Pm = 0.25 // sample every 4th frame
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatalf("NewCongestionPoint: %v", err)
	}
	src := MAC{9, 9, 9, 9, 9, 9}
	var sampled int
	for i := 0; i < 40; i++ {
		// Keep the queue far above q0 so every sample yields a
		// negative message.
		if m := cp.OnArrival(Arrival{SizeBits: 1e5, Src: src}); m != nil {
			sampled++
			if m.Sigma >= 0 {
				t.Errorf("expected negative σ while overloaded, got %v", m.Sigma)
			}
			if m.DA != src {
				t.Errorf("message DA = %v, want sampled source", m.DA)
			}
			if m.CPID != cfg.CPID {
				t.Errorf("message CPID = %v", m.CPID)
			}
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d frames out of 40 at Pm=0.25, want 10", sampled)
	}
	s, _, neg := cp.Stats()
	if s != 10 || neg != 10 {
		t.Errorf("stats = %d samples, %d neg; want 10, 10", s, neg)
	}
}

func TestCongestionPointQueueTracking(t *testing.T) {
	cp, err := NewCongestionPoint(validCPConfig())
	if err != nil {
		t.Fatal(err)
	}
	cp.OnArrival(Arrival{SizeBits: 5000})
	cp.OnArrival(Arrival{SizeBits: 3000})
	if got := cp.QueueBits(); got != 8000 {
		t.Errorf("QueueBits = %v, want 8000", got)
	}
	cp.OnDeparture(5000)
	if got := cp.QueueBits(); got != 3000 {
		t.Errorf("QueueBits = %v, want 3000", got)
	}
	cp.OnDeparture(1e9) // cannot go negative
	if got := cp.QueueBits(); got != 0 {
		t.Errorf("QueueBits = %v, want clamped 0", got)
	}
}

func TestCongestionPointSigmaFormula(t *testing.T) {
	// One frame per sample (Pm=1) makes σ easy to predict:
	// σ = (q0 − q) − w·Δq with Δq = arrivals − departures since the
	// previous sample.
	cfg := validCPConfig()
	cfg.Pm = 1
	cfg.Qsc = 0
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.OnArrival(Arrival{SizeBits: 2e5})
	// q = 2e5, Δq = 2e5: σ = (1e5 − 2e5) − 2·2e5 = −5e5.
	if m == nil || math.Abs(m.Sigma-(-5e5)) > 1e-9 {
		t.Fatalf("first sample σ = %+v, want −5e5", m)
	}
	cp.OnDeparture(1.5e5)
	m = cp.OnArrival(Arrival{SizeBits: 1e4})
	// q = 2e5 − 1.5e5 + 1e4 = 6e4; Δq = 1e4 − 1.5e5 = −1.4e5.
	// σ = (1e5 − 6e4) − 2·(−1.4e5) = 4e4 + 2.8e5 = 3.2e5 > 0 — but the
	// frame carries no matching RRT, so no positive message is sent.
	if m != nil {
		t.Fatalf("positive message without RRT: %+v", m)
	}
	// Same situation with a matching RRT and q < q0 → positive message.
	cp.OnDeparture(5e4)
	m = cp.OnArrival(Arrival{SizeBits: 1e4, RRT: cfg.CPID})
	if m == nil || m.Sigma <= 0 {
		t.Fatalf("expected positive message with matching RRT, got %+v", m)
	}
}

func TestCongestionPointSevere(t *testing.T) {
	cfg := validCPConfig()
	cp, err := NewCongestionPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Severe() {
		t.Error("empty queue severe")
	}
	cfg2 := cfg
	cfg2.Pm = 1
	cp2, err := NewCongestionPoint(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	m := cp2.OnArrival(Arrival{SizeBits: 9e5}) // above Qsc = 8e5
	if !cp2.Severe() {
		t.Error("queue above Qsc not severe")
	}
	if m == nil || m.Flags&FlagSevere == 0 {
		t.Errorf("severe flag not set: %+v", m)
	}
}

func validRPConfig() RPConfig {
	return RPConfig{Ru: 8e6, Gi: 4, Gd: 1.0 / 128, MinRate: 1e6, MaxRate: 1e9, Mode: ModeFluid}
}

func TestRPConfigValidate(t *testing.T) {
	good := validRPConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*RPConfig){
		func(c *RPConfig) { c.Ru = 0 },
		func(c *RPConfig) { c.Gi = -1 },
		func(c *RPConfig) { c.Gd = 0 },
		func(c *RPConfig) { c.MinRate = 0 },
		func(c *RPConfig) { c.MaxRate = c.MinRate },
		func(c *RPConfig) { c.Mode = GainMode(9) },
	}
	for i, mut := range muts {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewReactionPoint(good, 1e10); err == nil {
		t.Error("initial rate above MaxRate accepted")
	}
	if _, err := NewReactionPoint(good, 0); err == nil {
		t.Error("initial rate below MinRate accepted")
	}
}

func TestReactionPointFluidModeZOH(t *testing.T) {
	rp, err := NewReactionPoint(validRPConfig(), 5e8)
	if err != nil {
		t.Fatal(err)
	}
	// Before any message the rate is constant.
	if got := rp.Rate(1.0); got != 5e8 {
		t.Errorf("rate before feedback = %v, want unchanged", got)
	}
	// A negative message holds σ; afterwards the rate decays as
	// r(t) = r0·exp(Gd·σ·Δt).
	rp.OnMessage(&Message{CPID: 7, Sigma: -1e5}, 1.0)
	if rp.Associated() != 7 || rp.Tag() != 7 {
		t.Errorf("not associated after negative message")
	}
	want := 5e8 * math.Exp((1.0/128)*(-1e5)*1e-3)
	if got := rp.Rate(1.001); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("decayed rate = %v, want %v", got, want)
	}
	// A positive message re-bases the rate and holds the new σ:
	// r grows linearly at Gi·Ru·σ.
	base := rp.Rate(1.002)
	rp.OnMessage(&Message{CPID: 7, Sigma: 2e4}, 1.002)
	want = base + 4*8e6*2e4*1e-3
	if got := rp.Rate(1.003); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("grown rate = %v, want %v", got, want)
	}
}

func TestReactionPointFluidMatchesODE(t *testing.T) {
	// With σ held constant the ZOH law is the exact solution of the
	// fluid equations; verify both branches against small-step Euler.
	cfg := validRPConfig()
	rp, err := NewReactionPoint(cfg, 4e8)
	if err != nil {
		t.Fatal(err)
	}
	sigma := -5e4
	rp.OnMessage(&Message{CPID: 1, Sigma: sigma}, 0)
	r := 4e8
	h := 1e-6
	for tt := 0.0; tt < 0.01; tt += h {
		r += h * cfg.Gd * sigma * r
	}
	if got := rp.Rate(0.01); math.Abs(got-r)/r > 5e-3 {
		t.Errorf("decrease branch: ZOH %v vs Euler %v", got, r)
	}
}

func TestReactionPointDraftMode(t *testing.T) {
	cfg := validRPConfig()
	cfg.Mode = ModeDraft
	rp, err := NewReactionPoint(cfg, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	// Negative: r *= 1 + Gd·fb, fb = σ/FBUnit saturated.
	rp.OnMessage(&Message{CPID: 3, Sigma: -10 * FBUnit}, 0)
	want := 5e8 * (1 + (1.0/128)*(-10))
	if got := rp.Rate(0); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("draft decrease: rate = %v, want %v", got, want)
	}
	// Rate is constant between messages in draft mode.
	if got := rp.Rate(100); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("draft rate drifted: %v", got)
	}
	// Positive: r += Gi·Ru·fb.
	before := rp.Rate(1e-3)
	rp.OnMessage(&Message{CPID: 3, Sigma: 2 * FBUnit}, 1e-3)
	want = before + 4*8e6*2
	if got := rp.Rate(1e-3); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("draft increase: rate = %v, want %v", got, want)
	}
}

func TestReactionPointClampsAndRelease(t *testing.T) {
	cfg := validRPConfig()
	cfg.Mode = ModeDraft
	rp, err := NewReactionPoint(cfg, 9.99e8)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(&Message{CPID: 5, Sigma: -FBUnit}, 0)
	if rp.Associated() != 5 {
		t.Fatal("association missing")
	}
	// Huge positive feedback saturates to the line rate and releases
	// the association.
	rp.OnMessage(&Message{CPID: 5, Sigma: 1e12}, 1)
	if got := rp.Rate(1); got != cfg.MaxRate {
		t.Errorf("rate = %v, want clamped to MaxRate", got)
	}
	if rp.Associated() != 0 {
		t.Error("association not released at full rate")
	}
	// Massive negative feedback floors at MinRate (via the 0.1-factor
	// guard applied repeatedly).
	for i := 0; i < 50; i++ {
		rp.OnMessage(&Message{CPID: 5, Sigma: -1e12}, float64(i+2))
	}
	if got := rp.Rate(60); got != cfg.MinRate {
		t.Errorf("rate = %v, want floored at MinRate", got)
	}
}

func TestReactionPointFluidClamps(t *testing.T) {
	cfg := validRPConfig()
	rp, err := NewReactionPoint(cfg, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	// Positive σ held for a long time saturates at the line rate and
	// releases the association at the next materialization.
	rp.OnMessage(&Message{CPID: 2, Sigma: -100}, 0) // associate first
	rp.OnMessage(&Message{CPID: 2, Sigma: 1e6}, 1)
	if got := rp.Rate(100); got != cfg.MaxRate {
		t.Errorf("rate = %v, want MaxRate", got)
	}
	rp.OnMessage(&Message{CPID: 2, Sigma: 1e6}, 100)
	if rp.Associated() != 0 {
		t.Error("association not released at line rate")
	}
	// Negative σ held forever floors at MinRate.
	rp.OnMessage(&Message{CPID: 2, Sigma: -1e9}, 101)
	if got := rp.Rate(1e6); got != cfg.MinRate {
		t.Errorf("rate = %v, want MinRate", got)
	}
}

func TestReactionPointZeroSigmaIgnored(t *testing.T) {
	rp, err := NewReactionPoint(validRPConfig(), 5e8)
	if err != nil {
		t.Fatal(err)
	}
	rp.OnMessage(&Message{CPID: 1, Sigma: 0}, 0)
	if rp.Rate(10) != 5e8 || rp.Associated() != 0 {
		t.Error("zero-σ message should be a no-op")
	}
}

// TestQuickRateStaysInBounds: the regulator never leaves [MinRate,
// MaxRate] no matter the message sequence or query time.
func TestQuickRateStaysInBounds(t *testing.T) {
	prop := func(sigmas []int32, draft bool) bool {
		cfg := validRPConfig()
		if draft {
			cfg.Mode = ModeDraft
		}
		rp, err := NewReactionPoint(cfg, 5e8)
		if err != nil {
			return false
		}
		for i, s := range sigmas {
			now := float64(i) * 1e-4
			rp.OnMessage(&Message{CPID: 1, Sigma: float64(s)}, now)
			r := rp.Rate(now + 5e-5)
			if r < cfg.MinRate || r > cfg.MaxRate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSaturatedFB(t *testing.T) {
	if got := saturatedFB(FBUnit * 1e6); got != FBSat {
		t.Errorf("positive saturation = %v", got)
	}
	if got := saturatedFB(-FBUnit * 1e6); got != -FBSat {
		t.Errorf("negative saturation = %v", got)
	}
	if got := saturatedFB(FBUnit * 2); got != 2 {
		t.Errorf("saturatedFB(2 units) = %v", got)
	}
}
