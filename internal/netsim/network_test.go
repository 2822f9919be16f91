package netsim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bcnphase/internal/bcn"
)

// testConfig is a small, fast scenario: 10 sources on a 1 Gbps bottleneck.
func testConfig() Config {
	return Config{
		N:           10,
		Capacity:    1e9,
		LineRate:    1e9,
		FrameBits:   12000,
		BufferBits:  2e6,
		PropDelay:   FromSeconds(1e-6),
		InitialRate: 2e8, // aggregate 2 Gbps: persistent overload
		BCN:         true,
		Q0:          5e5,
		W:           2,
		Pm:          0.01,
		Ru:          8e6,
		Gi:          4,
		Gd:          1.0 / 128,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"N", func(c *Config) { c.N = 0 }},
		{"Capacity", func(c *Config) { c.Capacity = 0 }},
		{"LineRate", func(c *Config) { c.LineRate = -1 }},
		{"FrameBits", func(c *Config) { c.FrameBits = 0 }},
		{"BufferBits", func(c *Config) { c.BufferBits = 0 }},
		{"PropDelay", func(c *Config) { c.PropDelay = -1 }},
		{"InitialRate", func(c *Config) { c.InitialRate = 0 }},
		{"Q0 high", func(c *Config) { c.Q0 = c.BufferBits * 2 }},
		{"Pm", func(c *Config) { c.Pm = 0 }},
		{"Gd", func(c *Config) { c.Gd = 0 }},
		{"Pause no Qsc", func(c *Config) { c.Pause = true }},
		{"Pause no duration", func(c *Config) { c.Pause = true; c.Qsc = 1e6 }},
	}
	for _, m := range muts {
		c := good
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with zero config accepted")
	}
}

func TestRunConservation(t *testing.T) {
	net, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Bit conservation: sent = delivered + dropped + queued + in flight.
	var sent float64
	for _, s := range net.Sources() {
		sent += s.sentBits
	}
	accounted := res.DeliveredBits + res.DroppedBits + net.queueBits
	// In-flight frames (sent but not yet arrived) are bounded by
	// N × (propDelay × lineRate + one frame).
	cfg := testConfig()
	slack := float64(cfg.N) * (cfg.PropDelay.Seconds()*cfg.LineRate + cfg.FrameBits)
	if accounted > sent || sent-accounted > slack+1 {
		t.Errorf("conservation: sent=%v accounted=%v slack=%v", sent, accounted, slack)
	}
	if res.Events == 0 {
		t.Error("no events processed")
	}
}

func TestRunQueueNeverExceedsBuffer(t *testing.T) {
	cfg := testConfig()
	cfg.BufferBits = 8e5
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueueBits > cfg.BufferBits {
		t.Errorf("MaxQueueBits = %v exceeds buffer %v", res.MaxQueueBits, cfg.BufferBits)
	}
	for _, q := range res.Queue.V {
		if q > cfg.BufferBits {
			t.Fatalf("sampled queue %v exceeds buffer", q)
		}
	}
}

func TestBCNControlsQueue(t *testing.T) {
	// Parameters chosen so the fluid premises roughly hold (frequent
	// sampling, modest additive gain): BCN must keep the overloaded
	// bottleneck lossless and well utilized, with the queue bounded
	// near the reference rather than at the buffer limit.
	cfg := testConfig()
	cfg.BufferBits = 4e6
	cfg.Pm = 0.2
	cfg.Gi = 0.05
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedFrames != 0 {
		t.Errorf("drops = %d under BCN control", res.DroppedFrames)
	}
	if res.Utilization < 0.9 {
		t.Errorf("utilization = %v, want > 0.9", res.Utilization)
	}
	// The queue must stay far from the buffer limit (the controller,
	// not the buffer, bounds it).
	if res.MaxQueueBits > cfg.BufferBits/2 {
		t.Errorf("max queue %v should stay below B/2 = %v", res.MaxQueueBits, cfg.BufferBits/2)
	}
	// The late-time queue mean sits in a broad band around Q0.
	var sum float64
	var cnt int
	for i, tt := range res.Queue.T {
		if tt > 0.2 {
			sum += res.Queue.V[i]
			cnt++
		}
	}
	if cnt == 0 {
		t.Fatal("no late samples")
	}
	mean := sum / float64(cnt)
	if mean < 0.1*cfg.Q0 || mean > 3*cfg.Q0 {
		t.Errorf("late queue mean = %v, want within (0.1, 3)×Q0 = %v", mean, cfg.Q0)
	}
	if res.CPSamples == 0 || res.NegMessages == 0 || res.PosMessages == 0 {
		t.Errorf("feedback starved: samples=%d pos=%d neg=%d", res.CPSamples, res.PosMessages, res.NegMessages)
	}
}

func TestNoBCNOverloadedDropsAndFills(t *testing.T) {
	cfg := testConfig()
	cfg.BCN = false
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Persistent 2:1 overload without control: buffer fills, drops.
	if res.DroppedFrames == 0 {
		t.Error("expected drops without congestion control")
	}
	if res.MaxQueueBits < 0.95*cfg.BufferBits {
		t.Errorf("queue should fill: max = %v, B = %v", res.MaxQueueBits, cfg.BufferBits)
	}
	// Utilization stays high (the link is saturated) — the cost is loss.
	if res.Utilization < 0.9 {
		t.Errorf("utilization = %v", res.Utilization)
	}
}

func TestPauseOnlyBaselinePreventsDrops(t *testing.T) {
	cfg := testConfig()
	cfg.BCN = false
	cfg.Pause = true
	cfg.Qsc = 1.2e6
	cfg.PauseDuration = FromSeconds(50e-6)
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.PausesSent == 0 {
		t.Fatal("PAUSE never asserted under overload")
	}
	// PAUSE headroom: B − Qsc = 0.8 Mbit; in-flight at 2 Gbps over
	// 1 µs is tiny, so no drops are expected.
	if res.DroppedFrames != 0 {
		t.Errorf("drops = %d with PAUSE protection", res.DroppedFrames)
	}
}

func TestBCNWithPauseBackstop(t *testing.T) {
	cfg := testConfig()
	cfg.Pause = true
	cfg.Qsc = 1.5e6
	cfg.PauseDuration = FromSeconds(50e-6)
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedFrames != 0 {
		t.Errorf("drops = %d with BCN+PAUSE", res.DroppedFrames)
	}
	if res.MaxQueueBits > cfg.BufferBits {
		t.Errorf("max queue above buffer")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		net, err := New(testConfig())
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
	if a.Events != b.Events || a.DeliveredBits != b.DeliveredBits ||
		a.MaxQueueBits != b.MaxQueueBits || a.CPSamples != b.CPSamples {
		t.Errorf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestSeedJitterChangesRun(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 42
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := net.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	net2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := net2.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	same := resA.Events == resB.Events && resA.MaxQueueBits == resB.MaxQueueBits
	if same {
		// Fall back to comparing the sampled queue series.
		identical := len(resA.Queue.V) == len(resB.Queue.V)
		if identical {
			for i := range resA.Queue.V {
				if resA.Queue.V[i] != resB.Queue.V[i] {
					identical = false
					break
				}
			}
		}
		if identical {
			t.Error("different seeds produced identical runs (jitter inert?)")
		}
	}
}

func TestRunRejectsBadDuration(t *testing.T) {
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	cfg := testConfig()
	// Staggered starts beyond the first horizon would otherwise be
	// rescheduled silently by a second run.
	cfg.StartTimes = make([]Nanos, cfg.N)
	for i := range cfg.StartTimes {
		cfg.StartTimes[i] = FromSeconds(0.01 * float64(i))
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0.002); err != nil {
		t.Fatal(err)
	}
	events, pending := net.sim.Processed(), net.sim.Pending()
	res, err := net.Run(0.002)
	if !errors.Is(err, ErrAlreadyRun) || res != nil {
		t.Fatalf("second Run = (%v, %v), want (nil, ErrAlreadyRun)", res, err)
	}
	if _, err := net.RunContext(context.Background(), 0.002); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("RunContext after Run err = %v, want ErrAlreadyRun", err)
	}
	if net.sim.Processed() != events || net.sim.Pending() != pending {
		t.Error("rejected second run scheduled or processed events")
	}
	// A rejected duration does not use up the single run.
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Run(0); err == nil || errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("zero-duration Run err = %v", err)
	}
	if _, err := fresh.Run(0.001); err != nil {
		t.Fatalf("Run after a rejected duration: %v", err)
	}
}

func TestDraftModeRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = bcn.ModeDraft
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.NegMessages == 0 {
		t.Error("draft mode: no feedback generated")
	}
}

func TestSourceRateVisible(t *testing.T) {
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Sources() {
		if got := s.RateAt(0); got != 2e8 {
			t.Errorf("initial rate = %v", got)
		}
	}
}

func TestQCNSchemeControlsQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeQCN
	cfg.BufferBits = 4e6
	cfg.Pm = 0.2 // sample aggressively enough to catch the start-up burst
	cfg.MinRate = cfg.Capacity / (8 * float64(cfg.N))
	net, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := net.Run(0.4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DroppedFrames != 0 {
		t.Errorf("drops = %d under QCN", res.DroppedFrames)
	}
	// QCN's Active Increase probes in fixed 5 Mbps steps, so recovery
	// from the start-up crash is slower than BCN's proportional law.
	if res.Utilization < 0.75 {
		t.Errorf("utilization = %v, want > 0.75", res.Utilization)
	}
	if res.MaxQueueBits > cfg.BufferBits/2 {
		t.Errorf("max queue %v should stay below B/2", res.MaxQueueBits)
	}
	if res.NegMessages == 0 {
		t.Error("QCN sent no congestion messages")
	}
	if res.PosMessages != 0 {
		t.Errorf("QCN sent %d positive messages, want 0", res.PosMessages)
	}
}

func TestQCNSchemeValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeQCN
	// QCN needs no Ru/Gi/Gd.
	cfg.Ru, cfg.Gi, cfg.Gd = 0, 0, 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("QCN config should not require BCN gains: %v", err)
	}
	cfg.Scheme = Scheme(99)
	if _, err := New(cfg); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeBCN.String() != "bcn" || SchemeQCN.String() != "qcn" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme has empty name")
	}
}

func TestJainIndex(t *testing.T) {
	if got := jainIndex([]float64{1, 1, 1, 1}); got != 1 {
		t.Errorf("equal allocations: %v", got)
	}
	// One user hogging everything among n: index = 1/n.
	if got := jainIndex([]float64{1, 0, 0, 0}); got != 0.25 {
		t.Errorf("single hog: %v", got)
	}
	if got := jainIndex(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := jainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero: %v", got)
	}
}

// TestFairnessDependsOnSampling documents a real BCN pathology: with
// sparse sampling (pm = 0.2) sources that get crushed to low rates send
// few frames, are rarely sampled, and therefore rarely receive the
// positive messages they need to recover — a winner-take-most dynamic.
// Per-frame sampling (pm = 1) keeps feedback symmetric and fairness high.
// This starvation is the historical motivation for QCN's source-driven
// self-increase.
func TestFairnessDependsOnSampling(t *testing.T) {
	run := func(pm float64) *Result {
		cfg := testConfig()
		cfg.Pm = pm
		cfg.Gi = 0.05
		cfg.Seed = 7
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerSourceSentBits) != cfg.N {
			t.Fatalf("per-source stats missing: %d", len(res.PerSourceSentBits))
		}
		return res
	}
	dense := run(1.0)
	sparse := run(0.2)
	if dense.JainIndex < 0.8 {
		t.Errorf("dense sampling Jain = %v, want > 0.8", dense.JainIndex)
	}
	if sparse.JainIndex > 0.6 {
		t.Errorf("sparse sampling Jain = %v, expected the starvation pathology (< 0.6)", sparse.JainIndex)
	}
	if !(dense.JainIndex > sparse.JainIndex) {
		t.Error("denser sampling should be fairer")
	}
}

func TestSojournStats(t *testing.T) {
	mean, p99 := sojournStats(nil)
	if mean != 0 || p99 != 0 {
		t.Errorf("empty: %v, %v", mean, p99)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	mean, p99 = sojournStats(v)
	if mean != 50.5 {
		t.Errorf("mean = %v", mean)
	}
	if p99 != 99 {
		t.Errorf("p99 = %v, want 99", p99)
	}
}

func TestSojournMeasured(t *testing.T) {
	cfg := testConfig()
	cfg.Pm = 0.2
	cfg.Gi = 0.05
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Sojourn is bounded below by one transmission time and above by
	// buffer/capacity (plus one frame).
	txTime := cfg.FrameBits / cfg.Capacity
	if res.MeanSojourn < txTime {
		t.Errorf("mean sojourn %v below a single transmission time %v", res.MeanSojourn, txTime)
	}
	maxSojourn := (cfg.BufferBits + cfg.FrameBits) / cfg.Capacity
	if res.P99Sojourn > maxSojourn {
		t.Errorf("p99 sojourn %v above the buffer bound %v", res.P99Sojourn, maxSojourn)
	}
	if res.P99Sojourn < res.MeanSojourn {
		t.Error("p99 below mean")
	}
}

func TestFERASchemeControlsQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeFERA
	cfg.BufferBits = 4e6
	cfg.Pm = 0.2
	net, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := net.Run(0.2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Explicit rate advertising converges fast: sources obey the fair
	// share C·0.95/N, so the queue drains and stays near empty.
	if res.DroppedFrames != 0 {
		t.Errorf("drops = %d under FERA", res.DroppedFrames)
	}
	// Utilization approaches the 95% ERICA target.
	if res.Utilization < 0.85 || res.Utilization > 1.0 {
		t.Errorf("utilization = %v, want near the 0.95 target", res.Utilization)
	}
	// Homogeneous fair share: fairness should be essentially perfect.
	if res.JainIndex < 0.95 {
		t.Errorf("Jain = %v, want ~1 for explicit fair shares", res.JainIndex)
	}
	if res.PosMessages == 0 || res.NegMessages != 0 {
		t.Errorf("FERA message counts: pos=%d neg=%d", res.PosMessages, res.NegMessages)
	}
}

func TestE2CMSchemeControlsQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeE2CM
	cfg.BufferBits = 4e6
	cfg.Pm = 0.2
	cfg.MinRate = cfg.Capacity / (8 * float64(cfg.N))
	net, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := net.Run(0.2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DroppedFrames != 0 {
		t.Errorf("drops = %d under E2CM", res.DroppedFrames)
	}
	if res.Utilization < 0.8 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	// The hybrid uses both feedback directions.
	if res.NegMessages == 0 || res.PosMessages == 0 {
		t.Errorf("E2CM message counts: pos=%d neg=%d", res.PosMessages, res.NegMessages)
	}
	if res.MaxQueueBits > cfg.BufferBits/2 {
		t.Errorf("max queue %v above B/2", res.MaxQueueBits)
	}
}

func TestEventTrace(t *testing.T) {
	var buf strings.Builder
	cfg := testConfig()
	cfg.Pm = 0.2
	cfg.Trace = &buf
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0.002); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, marker := range []string{"+ src=", "- src=", "m src="} {
		if !strings.Contains(out, marker) {
			t.Errorf("trace missing %q events", marker)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 100 {
		t.Errorf("trace has only %d lines", len(lines))
	}
	// Timestamps are non-decreasing.
	prev := -1.0
	for _, l := range lines {
		var ts float64
		if _, err := fmt.Sscanf(l, "%f", &ts); err != nil {
			t.Fatalf("unparseable trace line %q", l)
		}
		if ts < prev {
			t.Fatalf("trace time went backwards: %q after %v", l, prev)
		}
		prev = ts
	}
}
