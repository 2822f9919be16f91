package faults

import (
	"bytes"
	"testing"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{FeedbackLoss: -0.1},
		{FeedbackLoss: 1.5},
		{FeedbackCorrupt: 2},
		{FeedbackReorder: -1},
		{DataLoss: 7},
		{FeedbackJitterNs: -5},
		{ReorderDelayNs: -1},
		{FlapPeriodNs: 100, FlapDownNs: 200, FlapFactor: 0.5},
		{FlapPeriodNs: 100, FlapDownNs: 50, FlapFactor: 0},
		{FlapPeriodNs: 100, FlapDownNs: 50, FlapFactor: 1.5},
		{FlapPeriodNs: -1},
		{BlackoutPeriodNs: 100, BlackoutDurNs: 200},
		{BlackoutPeriodNs: -3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) accepted", i, c)
		}
		if _, err := NewPlan(c); err == nil {
			t.Errorf("NewPlan accepted config %d", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestNilPlanIsNoFault(t *testing.T) {
	var p *Plan
	if p.DropFeedback() || p.DropData() {
		t.Error("nil plan dropped something")
	}
	if d := p.FeedbackDelayNs(); d != 0 {
		t.Errorf("nil plan delay = %d", d)
	}
	buf := []byte{1, 2, 3}
	if p.CorruptFeedback(buf) || !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Error("nil plan corrupted bytes")
	}
	if s := p.CapacityScale(12345); s != 1 {
		t.Errorf("nil plan capacity scale = %v", s)
	}
	if p.SampleBlanked(12345) {
		t.Error("nil plan blanked a sample")
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Errorf("nil plan stats = %+v", st)
	}
}

// TestDeterminism pins the core contract: two plans with the same seed
// make identical decisions in the same order.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Seed:             42,
		FeedbackLoss:     0.3,
		FeedbackJitterNs: 5000,
		FeedbackReorder:  0.1,
		FeedbackCorrupt:  0.2,
		DataLoss:         0.25,
		FlapPeriodNs:     1000, FlapDownNs: 300, FlapFactor: 0.5,
		BlackoutPeriodNs: 2000, BlackoutDurNs: 500,
	}
	a, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if a.DropFeedback() != b.DropFeedback() {
			t.Fatalf("drop decision %d diverged", i)
		}
		if a.FeedbackDelayNs() != b.FeedbackDelayNs() {
			t.Fatalf("delay decision %d diverged", i)
		}
		ba := []byte{0xAA, 0x55, 0xF0, 0x0F}
		bb := []byte{0xAA, 0x55, 0xF0, 0x0F}
		if a.CorruptFeedback(ba) != b.CorruptFeedback(bb) || !bytes.Equal(ba, bb) {
			t.Fatalf("corruption decision %d diverged", i)
		}
		if a.DropData() != b.DropData() {
			t.Fatalf("data decision %d diverged", i)
		}
		now := int64(i) * 137
		if a.CapacityScale(now) != b.CapacityScale(now) {
			t.Fatalf("capacity scale %d diverged", i)
		}
		if a.SampleBlanked(now) != b.SampleBlanked(now) {
			t.Fatalf("blackout decision %d diverged", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestStreamIndependence: tuning one fault dimension must not perturb the
// decision sequence of another.
func TestStreamIndependence(t *testing.T) {
	base := Config{Seed: 7, FeedbackLoss: 0.5}
	withJitter := base
	withJitter.FeedbackJitterNs = 10000

	a, _ := NewPlan(base)
	b, _ := NewPlan(withJitter)
	for i := 0; i < 1000; i++ {
		if a.DropFeedback() != b.DropFeedback() {
			t.Fatalf("drop decision %d perturbed by enabling jitter", i)
		}
		b.FeedbackDelayNs() // advance jitter stream in between
	}
}

func TestZeroSeedIsFixedDefault(t *testing.T) {
	a, _ := NewPlan(Config{FeedbackLoss: 0.5})
	b, _ := NewPlan(Config{FeedbackLoss: 0.5})
	c, _ := NewPlan(Config{Seed: defaultSeed, FeedbackLoss: 0.5})
	for i := 0; i < 100; i++ {
		da, db, dc := a.DropFeedback(), b.DropFeedback(), c.DropFeedback()
		if da != db || da != dc {
			t.Fatalf("zero seed not the fixed default at decision %d", i)
		}
	}
}

func TestRatesAreHonored(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 3, FeedbackLoss: 0.25, DataLoss: 0.5})
	const n = 100000
	for i := 0; i < n; i++ {
		p.DropFeedback()
		p.DropData()
	}
	st := p.Stats()
	if f := float64(st.FeedbackDropped) / n; f < 0.23 || f > 0.27 {
		t.Errorf("feedback drop fraction = %v, want ~0.25", f)
	}
	if f := float64(st.DataDropped) / n; f < 0.48 || f > 0.52 {
		t.Errorf("data drop fraction = %v, want ~0.5", f)
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 5, FeedbackCorrupt: 1})
	orig := []byte{0x00, 0xFF, 0xA5, 0x3C}
	for i := 0; i < 100; i++ {
		buf := append([]byte(nil), orig...)
		if !p.CorruptFeedback(buf) {
			t.Fatal("corruption rate 1 did not corrupt")
		}
		diff := 0
		for j := range buf {
			x := buf[j] ^ orig[j]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("flipped %d bits, want 1", diff)
		}
	}
}

func TestCapacityScaleAndBlackoutWindows(t *testing.T) {
	cfg := Config{Seed: 11, FlapPeriodNs: 1000, FlapDownNs: 250, FlapFactor: 0.5,
		BlackoutPeriodNs: 1000, BlackoutDurNs: 400}
	p, _ := NewPlan(cfg)
	var down, blanked int
	const n = 100000
	for i := 0; i < n; i++ {
		if p.CapacityScale(int64(i)) != 1 {
			down++
		}
		if p.SampleBlanked(int64(i)) {
			blanked++
		}
	}
	if f := float64(down) / n; f < 0.24 || f > 0.26 {
		t.Errorf("down fraction = %v, want ~0.25", f)
	}
	if f := float64(blanked) / n; f < 0.39 || f > 0.41 {
		t.Errorf("blanked fraction = %v, want ~0.4", f)
	}
	if got := p.Stats().SamplesBlanked; got != uint64(blanked) {
		t.Errorf("SamplesBlanked = %d, want %d", got, blanked)
	}
	// Negative time (pre-start bookkeeping) never faults.
	if p.CapacityScale(-5) != 1 || p.SampleBlanked(-5) {
		t.Error("negative time faulted")
	}
}

func TestJitterBounds(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 9, FeedbackJitterNs: 1000})
	var maxSeen int64
	for i := 0; i < 10000; i++ {
		d := p.FeedbackDelayNs()
		if d < 0 || d > 1000 {
			t.Fatalf("jitter %d outside [0, 1000]", d)
		}
		if d > maxSeen {
			maxSeen = d
		}
	}
	if maxSeen < 900 {
		t.Errorf("max jitter seen = %d, expected near 1000", maxSeen)
	}
}

func TestReorderHoldDefaults(t *testing.T) {
	p, _ := NewPlan(Config{Seed: 13, FeedbackReorder: 1})
	d := p.FeedbackDelayNs()
	if d != 10_000 {
		t.Errorf("default reorder hold = %d, want 10000", d)
	}
	if p.Stats().FeedbackReordered != 1 || p.Stats().FeedbackDelayed != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
	p2, _ := NewPlan(Config{Seed: 13, FeedbackReorder: 1, FeedbackJitterNs: 500})
	if got := p2.cfg.ReorderDelayNs; got != 5000 {
		t.Errorf("derived reorder hold = %d, want 10x jitter", got)
	}
}
