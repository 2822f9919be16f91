package netsim

import (
	"context"
	"errors"
	"testing"
)

// mhConfig: 4 hot sources at 400 Mbps each (1.6 Gbps offered) into a
// 1 Gbps core port A, one 200 Mbps victim to the idle port B, both
// sharing a 2 Gbps edge->core link.
func mhConfig() MultihopConfig {
	return MultihopConfig{
		HotSources: 4,
		HotRate:    4e8,
		VictimRate: 2e8,
		LineRate:   1e9,
		LinkEX:     2e9,
		PortA:      1e9,
		PortB:      1e9,
		FrameBits:  12000,
		BufEdge:    1e6,
		BufA:       2e6,
		PropDelay:  FromSeconds(1e-6),
	}
}

func TestMultihopValidate(t *testing.T) {
	good := mhConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*MultihopConfig){
		func(c *MultihopConfig) { c.HotSources = 0 },
		func(c *MultihopConfig) { c.HotRate = 0 },
		func(c *MultihopConfig) { c.VictimRate = -1 },
		func(c *MultihopConfig) { c.LinkEX = 0 },
		func(c *MultihopConfig) { c.FrameBits = 0 },
		func(c *MultihopConfig) { c.BufA = 0 },
		func(c *MultihopConfig) { c.PropDelay = -1 },
		func(c *MultihopConfig) { c.BCN = true },   // missing knobs
		func(c *MultihopConfig) { c.Pause = true }, // missing duration
	}
	for i, mut := range muts {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewMultihop(MultihopConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestMultihopUncontrolledDropsNotVictim(t *testing.T) {
	// Without PAUSE or BCN, port A drops hot traffic but the victim's
	// path (edge link and port B both underloaded) is clean.
	net, err := NewMultihop(mhConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.DropsA == 0 {
		t.Error("expected drops at the congested port A")
	}
	if res.DropsEdge != 0 {
		t.Errorf("edge drops = %d, want 0 (link underloaded)", res.DropsEdge)
	}
	if res.VictimShare < 0.95 {
		t.Errorf("victim share = %v, want ~1 without PAUSE", res.VictimShare)
	}
	if res.HotThroughput > 1.02e9 {
		t.Errorf("hot throughput %v exceeds port A capacity", res.HotThroughput)
	}
}

func TestMultihopPauseHOLBlocksVictim(t *testing.T) {
	// PAUSE-only: the core pauses the shared edge link; the victim is
	// head-of-line blocked even though its port is idle, and the edge
	// then pauses the sources (congestion rollback).
	cfg := mhConfig()
	cfg.Pause = true
	cfg.PauseDuration = FromSeconds(50e-6)
	net, err := NewMultihop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.PausesCoreToEdge == 0 {
		t.Fatal("core never paused the edge link")
	}
	if res.DropsA != 0 {
		t.Errorf("drops at A = %d with PAUSE", res.DropsA)
	}
	// The victim suffers: it loses a substantial share of its
	// throughput to head-of-line blocking.
	if res.VictimShare > 0.8 {
		t.Errorf("victim share = %v, expected HOL-blocking damage (< 0.8)", res.VictimShare)
	}
	// Congestion rolls back: the edge queue fills and the edge pauses
	// the sources too.
	if res.PausesEdgeToSources == 0 {
		t.Error("congestion never rolled back to the sources")
	}
}

func TestMultihopBCNProtectsVictim(t *testing.T) {
	// BCN rate-limits the hot flows at their sources: no PAUSE needed,
	// the victim keeps its full throughput, and port A stays lossless
	// after the initial transient is absorbed by the buffer.
	cfg := mhConfig()
	cfg.BCN = true
	cfg.Q0 = 4e5
	cfg.W = 2
	cfg.Pm = 0.2
	cfg.Ru = 8e6
	cfg.Gi = 0.05
	cfg.Gd = 1.0 / 128
	net, err := NewMultihop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimShare < 0.95 {
		t.Errorf("victim share = %v, want ~1 under BCN", res.VictimShare)
	}
	if res.DropsA != 0 {
		t.Errorf("drops at A = %d under BCN", res.DropsA)
	}
	if res.PausesCoreToEdge != 0 || res.PausesEdgeToSources != 0 {
		t.Error("PAUSE fired although disabled")
	}
	// Hot flows still use most of port A.
	if res.HotThroughput < 0.7e9 {
		t.Errorf("hot throughput = %v, want > 0.7 Gbps", res.HotThroughput)
	}
}

func TestMultihopDeterministic(t *testing.T) {
	run := func() *MultihopResult {
		net, err := NewMultihop(mhConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(0.02)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Events != b.Events || a.VictimThroughput != b.VictimThroughput {
		t.Error("multihop runs are not deterministic")
	}
}

func TestMultihopRejectsBadDuration(t *testing.T) {
	net, err := NewMultihop(mhConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(-1); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestMultihopRunTwiceFails(t *testing.T) {
	net, err := NewMultihop(mhConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0.002); err != nil {
		t.Fatal(err)
	}
	events := net.sim.Processed()
	res, err := net.Run(0.002)
	if !errors.Is(err, ErrAlreadyRun) || res != nil {
		t.Fatalf("second Run = (%v, %v), want (nil, ErrAlreadyRun)", res, err)
	}
	if _, err := net.RunContext(context.Background(), 0.002); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("RunContext after Run err = %v, want ErrAlreadyRun", err)
	}
	if net.sim.Processed() != events {
		t.Error("rejected second run processed events")
	}
}

func TestMultihopQCNProtectsVictim(t *testing.T) {
	cfg := mhConfig()
	cfg.BCN = true
	cfg.Scheme = SchemeQCN
	cfg.Q0 = 4e5
	cfg.W = 2
	cfg.Pm = 0.2
	cfg.MinRate = cfg.PortA / 32
	net, err := NewMultihop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimShare < 0.95 {
		t.Errorf("victim share = %v under QCN", res.VictimShare)
	}
	if res.DropsA != 0 {
		t.Errorf("drops = %d under QCN", res.DropsA)
	}
}

func TestMultihopUnknownScheme(t *testing.T) {
	cfg := mhConfig()
	cfg.BCN = true
	cfg.Q0 = 4e5
	cfg.W = 2
	cfg.Pm = 0.2
	cfg.Ru, cfg.Gi, cfg.Gd = 8e6, 0.05, 1.0/128
	cfg.Scheme = SchemeFERA
	if _, err := NewMultihop(cfg); err == nil {
		t.Error("unsupported multihop scheme accepted")
	}
}

// newQueueHarness is a bare multihop network whose engine dispatches to
// the queues a test adds with newQueue.
func newQueueHarness() *MultihopNetwork {
	n := &MultihopNetwork{}
	n.sim = newSim(n.dispatch)
	return n
}

func TestMhQueueBasics(t *testing.T) {
	n := newQueueHarness()
	var delivered []float64
	q := n.newQueue("t", 1e6, 3000)
	q.onDepart = func(f frame) { delivered = append(delivered, f.bits) }
	// Fill to the buffer: third frame dropped.
	if !q.enqueue(n, frame{bits: 1500}) || !q.enqueue(n, frame{bits: 1500}) {
		t.Fatal("in-buffer frames rejected")
	}
	if q.enqueue(n, frame{bits: 1500}) {
		t.Error("overflow frame accepted")
	}
	if q.drops != 1 || q.dropped != 1500 {
		t.Errorf("drops = %d/%.0f", q.drops, q.dropped)
	}
	if q.maxBits != 3000 {
		t.Errorf("maxBits = %v", q.maxBits)
	}
	n.sim.RunChecked(FromSeconds(1), 0, nil)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d frames", len(delivered))
	}
	if q.bits != 0 || q.busy {
		t.Errorf("queue not drained: bits=%v busy=%v", q.bits, q.busy)
	}
}

func TestMhQueuePauseResume(t *testing.T) {
	n := newQueueHarness()
	var delivered int
	q := n.newQueue("t", 1e6, 1e6)
	q.onDepart = func(frame) { delivered++ }
	q.pause()
	q.enqueue(n, frame{bits: 1000})
	n.sim.RunChecked(FromSeconds(0.5), 0, nil)
	if delivered != 0 {
		t.Fatal("paused queue served a frame")
	}
	q.resume(n)
	n.sim.RunChecked(FromSeconds(1), 0, nil)
	if delivered != 1 {
		t.Fatalf("resumed queue delivered %d", delivered)
	}
	// Resuming an unpaused queue is a no-op.
	q.resume(n)
}
