package netsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"bcnphase/internal/faults"
)

// runPair executes the same config twice and returns both results.
func runPair(t *testing.T, cfg Config, dur float64) (*Result, *Result) {
	t.Helper()
	var out [2]*Result
	for i := range out {
		net, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := net.Run(dur)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		out[i] = res
	}
	return out[0], out[1]
}

func sameSeries(a, b *Result) bool {
	if len(a.Queue.T) != len(b.Queue.T) {
		return false
	}
	for i := range a.Queue.T {
		if a.Queue.T[i] != b.Queue.T[i] || a.Queue.V[i] != b.Queue.V[i] {
			return false
		}
	}
	return a.DeliveredBits == b.DeliveredBits && a.Faults == b.Faults &&
		a.MalformedMsgs == b.MalformedMsgs
}

func TestFaultInjectionIsDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 11
	cfg.Faults = &faults.Config{
		Seed:             3,
		FeedbackLoss:     0.3,
		FeedbackJitterNs: 20_000,
		FeedbackCorrupt:  0.1,
		DataLoss:         0.02,
	}
	a, b := runPair(t, cfg, 0.02)
	if !sameSeries(a, b) {
		t.Fatal("same-seed faulted runs diverged")
	}
	if a.Faults.FeedbackDropped == 0 || a.Faults.DataDropped == 0 {
		t.Errorf("faults not exercised: %+v", a.Faults)
	}
}

func TestZeroSeedIsFixedDefault(t *testing.T) {
	zero := testConfig()
	zero.Seed = 0
	explicit := testConfig()
	explicit.Seed = defaultSeed
	a, _ := runPair(t, zero, 0.01)
	b, _ := runPair(t, explicit, 0.01)
	if !sameSeries(a, b) {
		t.Fatal("Seed=0 does not behave as the fixed default seed")
	}
	other := testConfig()
	other.Seed = 1
	c, _ := runPair(t, other, 0.01)
	if sameSeries(a, c) {
		t.Fatal("start-offset randomization appears inert: Seed=0 and Seed=1 runs identical")
	}
}

func TestCorruptedFeedbackIsRejectedOrSafe(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faults.Config{Seed: 5, FeedbackCorrupt: 1}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.02)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Faults.FeedbackCorrupted == 0 {
		t.Fatal("corruption never fired at probability 1")
	}
	rejected := res.MalformedMsgs + res.MisdeliveredMsgs
	if rejected == 0 {
		t.Error("no corrupted frame was ever rejected (decode/validate too permissive?)")
	}
	if rejected > res.Faults.FeedbackCorrupted {
		t.Errorf("rejected %d > corrupted %d", rejected, res.Faults.FeedbackCorrupted)
	}
	for _, s := range net.Sources() {
		if r := s.RateAt(0.02); math.IsNaN(r) || r <= 0 {
			t.Fatalf("corrupted feedback poisoned a source rate: %v", r)
		}
	}
}

func TestFeedbackLossWeakensControl(t *testing.T) {
	clean := testConfig()
	clean.BufferBits = 8e6 // headroom so peaks are natural, not clipped
	lossy := clean
	lossy.Faults = &faults.Config{Seed: 9, FeedbackLoss: 0.9}
	a, _ := runPair(t, clean, 0.03)
	b, _ := runPair(t, lossy, 0.03)
	if b.MaxQueueBits <= a.MaxQueueBits {
		t.Errorf("losing 90%% of feedback did not raise the peak queue: clean=%.0f lossy=%.0f",
			a.MaxQueueBits, b.MaxQueueBits)
	}
}

func TestCapacityFlapStretchesService(t *testing.T) {
	cfg := testConfig()
	cfg.BCN = false
	cfg.InitialRate = 5e7 // aggregate 0.5 Gbps: uncongested when healthy
	flapped := cfg
	flapped.Faults = &faults.Config{
		Seed:         2,
		FlapPeriodNs: 2_000_000,
		FlapDownNs:   1_000_000,
		FlapFactor:   0.1,
	}
	a, _ := runPair(t, cfg, 0.02)
	b, _ := runPair(t, flapped, 0.02)
	if b.DeliveredBits >= a.DeliveredBits {
		t.Errorf("capacity flaps did not reduce delivery: %v >= %v", b.DeliveredBits, a.DeliveredBits)
	}
	if b.MaxQueueBits <= a.MaxQueueBits {
		t.Errorf("capacity flaps did not grow the queue: %v <= %v", b.MaxQueueBits, a.MaxQueueBits)
	}
}

func TestSamplingBlackoutSuppressesFeedback(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faults.Config{
		Seed:             4,
		BlackoutPeriodNs: 1_000_000,
		BlackoutDurNs:    500_000,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.SamplesBlanked == 0 {
		t.Error("blackout windows never suppressed feedback")
	}
}

func TestEventBudgetAbortsWithPartialResult(t *testing.T) {
	cfg := testConfig()
	cfg.MaxEvents = 5000
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(1.0) // would be millions of events uncapped
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if res == nil {
		t.Fatal("no partial result on budget abort")
	}
	if res.Events < cfg.MaxEvents {
		t.Errorf("aborted at %d events, budget %d", res.Events, cfg.MaxEvents)
	}
	if res.SimSeconds <= 0 || res.SimSeconds >= 1.0 {
		t.Errorf("partial SimSeconds = %v, want within (0, 1)", res.SimSeconds)
	}
	if res.Queue.Len() == 0 {
		t.Error("partial result has an empty queue series")
	}
}

func TestContextCancellationAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.RunContext(ctx, 1.0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result on cancellation")
	}
	if res.Queue.Len() == 0 {
		t.Error("cancelled run lost its initial sample")
	}
}

func TestMultihopContextCancellationAborts(t *testing.T) {
	cfg := MultihopConfig{
		HotSources: 4, HotRate: 4e8, VictimRate: 2e8,
		LineRate: 1e9, LinkEX: 1e9, PortA: 1e9, PortB: 1e9,
		FrameBits: 12000, BufEdge: 2e6, BufA: 2e6,
		PropDelay: FromSeconds(1e-6),
	}
	net, err := NewMultihop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := net.RunContext(ctx, 1.0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.QueueA.Len() == 0 {
		t.Fatalf("partial multihop result missing or empty: %+v", res)
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Capacity = math.Inf(1) },
		func(c *Config) { c.FrameBits = math.NaN() },
		func(c *Config) { c.Gi = math.Inf(-1) },
		func(c *Config) { c.Faults = &faults.Config{FeedbackLoss: math.NaN()} },
	}
	for i, mut := range muts {
		cfg := testConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: non-finite config accepted", i)
		}
	}
}

func TestFromSecondsSaturates(t *testing.T) {
	if got := FromSeconds(math.Inf(1)); got != Nanos(math.MaxInt64) {
		t.Errorf("FromSeconds(+Inf) = %d", got)
	}
	if got := FromSeconds(math.Inf(-1)); got != Nanos(math.MinInt64) {
		t.Errorf("FromSeconds(-Inf) = %d", got)
	}
	if got := FromSeconds(math.NaN()); got != 0 {
		t.Errorf("FromSeconds(NaN) = %d", got)
	}
	if got := FromSeconds(1.5e-9); got != 2 {
		t.Errorf("FromSeconds rounding broke: %d", got)
	}
}
