// Package faults provides a seeded, deterministic fault-injection plan
// for the packet-level simulator and the surrounding compute pipeline.
//
// The paper's fluid model (and Theorem 1) assumes the BCN feedback path
// is ideal: every congestion-point message reaches its reaction point
// instantly and intact. Real Data Center Ethernet loses, delays, reorders
// and corrupts feedback frames, drops data frames, and flaps link
// capacity. A Plan makes those degradations injectable at the simulator's
// message- and frame-delivery points so experiments can measure how much
// feedback degradation BCN's strong stability survives.
//
// Determinism contract: a Plan is driven entirely by the Config.Seed.
// Each fault dimension (feedback drop, jitter, reorder, corruption, data
// loss) draws from its own seeded stream, so enabling or tuning one fault
// does not perturb the random sequence of another, and two runs with the
// same Config consult identical fault decisions in the same order. Plans
// are not safe for concurrent use; build one Plan per simulation run.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrConfig marks an invalid fault configuration.
var ErrConfig = errors.New("faults: invalid config")

// Config describes which faults to inject and how hard. The zero value
// injects nothing. Probabilities are per consulted event; durations are
// integer nanoseconds to match the simulator clock.
type Config struct {
	// Seed drives every fault stream. Zero derives a fixed default seed
	// so a zero-valued Seed still yields a reproducible plan.
	Seed int64

	// FeedbackLoss is the probability, in [0, 1], that a BCN feedback
	// message is dropped on its way back to the source.
	FeedbackLoss float64
	// FeedbackJitterNs adds a uniform extra delivery delay in
	// [0, FeedbackJitterNs] nanoseconds to each surviving feedback
	// message. Because each message draws independently, jitter larger
	// than the message spacing reorders deliveries.
	FeedbackJitterNs int64
	// FeedbackReorder is the probability, in [0, 1], that a surviving
	// feedback message is additionally held for ReorderDelayNs, forcing
	// it behind messages sent after it.
	FeedbackReorder float64
	// ReorderDelayNs is the hold applied to reordered messages
	// (default 10·FeedbackJitterNs, or 10 µs when jitter is zero).
	ReorderDelayNs int64
	// FeedbackCorrupt is the probability, in [0, 1], that a feedback
	// message has one wire bit flipped before delivery. Corrupted frames
	// either fail decoding/validation (counted by the receiver) or carry
	// perturbed-but-plausible feedback — exactly the failure CRC-less
	// validation cannot catch.
	FeedbackCorrupt float64

	// DataLoss is the probability, in [0, 1], that a data frame is lost
	// on the link before reaching the bottleneck.
	DataLoss float64

	// FlapPeriodNs enables periodic link-capacity flapping: every
	// period, the bottleneck serves at FlapFactor × capacity for the
	// first FlapDownNs nanoseconds. Zero disables flapping.
	FlapPeriodNs int64
	// FlapDownNs is the degraded-phase length within each flap period.
	FlapDownNs int64
	// FlapFactor is the capacity multiplier during the degraded phase,
	// in (0, 1].
	FlapFactor float64

	// BlackoutPeriodNs enables periodic congestion-point sampling
	// blackouts: every period, feedback generated during the first
	// BlackoutDurNs nanoseconds is suppressed (queue accounting
	// continues). Zero disables blackouts.
	BlackoutPeriodNs int64
	// BlackoutDurNs is the blackout-window length within each period.
	BlackoutDurNs int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"FeedbackLoss", c.FeedbackLoss},
		{"FeedbackReorder", c.FeedbackReorder},
		{"FeedbackCorrupt", c.FeedbackCorrupt},
		{"DataLoss", c.DataLoss},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("%w: %s=%v must be in [0, 1]", ErrConfig, p.name, p.v)
		}
	}
	if c.FeedbackJitterNs < 0 {
		return fmt.Errorf("%w: FeedbackJitterNs=%d must be non-negative", ErrConfig, c.FeedbackJitterNs)
	}
	if c.ReorderDelayNs < 0 {
		return fmt.Errorf("%w: ReorderDelayNs=%d must be non-negative", ErrConfig, c.ReorderDelayNs)
	}
	if c.FlapPeriodNs < 0 || c.FlapDownNs < 0 {
		return fmt.Errorf("%w: flap times must be non-negative", ErrConfig)
	}
	if c.FlapPeriodNs > 0 {
		if c.FlapDownNs > c.FlapPeriodNs {
			return fmt.Errorf("%w: FlapDownNs=%d exceeds FlapPeriodNs=%d", ErrConfig, c.FlapDownNs, c.FlapPeriodNs)
		}
		if math.IsNaN(c.FlapFactor) || !(c.FlapFactor > 0) || c.FlapFactor > 1 {
			return fmt.Errorf("%w: FlapFactor=%v must be in (0, 1]", ErrConfig, c.FlapFactor)
		}
	}
	if c.BlackoutPeriodNs < 0 || c.BlackoutDurNs < 0 {
		return fmt.Errorf("%w: blackout times must be non-negative", ErrConfig)
	}
	if c.BlackoutPeriodNs > 0 && c.BlackoutDurNs > c.BlackoutPeriodNs {
		return fmt.Errorf("%w: BlackoutDurNs=%d exceeds BlackoutPeriodNs=%d", ErrConfig, c.BlackoutDurNs, c.BlackoutPeriodNs)
	}
	return nil
}

// Stats counts the faults a Plan actually injected.
type Stats struct {
	// FeedbackDropped counts feedback messages lost outright.
	FeedbackDropped uint64
	// FeedbackDelayed counts feedback messages given nonzero extra delay.
	FeedbackDelayed uint64
	// FeedbackReordered counts feedback messages held for the reorder
	// delay (a subset of FeedbackDelayed).
	FeedbackReordered uint64
	// FeedbackCorrupted counts feedback messages with a flipped bit.
	FeedbackCorrupted uint64
	// DataDropped counts data frames lost on links.
	DataDropped uint64
	// SamplesBlanked counts congestion-point feedback suppressed by
	// sampling blackouts.
	SamplesBlanked uint64
}

// Plan is an instantiated fault schedule. The zero of *Plan (nil) is a
// valid no-fault plan: every method on a nil receiver reports "no fault",
// so callers can thread an optional plan without nil checks.
type Plan struct {
	cfg Config

	drop, jitter, reorder, corrupt, data *rand.Rand
	flapPhase, blackoutPhase             int64

	stats Stats
}

// defaultSeed replaces a zero Config.Seed so the zero value still names
// one reproducible plan rather than a special "unseeded" mode.
const defaultSeed int64 = 0x62636e70 // "bcnp"

// NewPlan validates the configuration and builds a plan.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	if cfg.ReorderDelayNs == 0 {
		cfg.ReorderDelayNs = 10 * cfg.FeedbackJitterNs
		if cfg.ReorderDelayNs == 0 {
			cfg.ReorderDelayNs = 10_000 // 10 µs
		}
	}
	p := &Plan{
		cfg:     cfg,
		drop:    stream(seed, 1),
		jitter:  stream(seed, 2),
		reorder: stream(seed, 3),
		corrupt: stream(seed, 4),
		data:    stream(seed, 5),
	}
	// Window phases are seeded too, so periodic faults do not all start
	// aligned at t = 0.
	if cfg.FlapPeriodNs > 0 {
		p.flapPhase = stream(seed, 6).Int63n(cfg.FlapPeriodNs)
	}
	if cfg.BlackoutPeriodNs > 0 {
		p.blackoutPhase = stream(seed, 7).Int63n(cfg.BlackoutPeriodNs)
	}
	return p, nil
}

// stream derives an independent RNG for one fault dimension via a
// splitmix64 scramble of (seed, id).
func stream(seed, id int64) *rand.Rand {
	z := uint64(seed) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Stats returns the injected-fault counters so far.
func (p *Plan) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats
}

// DropFeedback decides whether the next feedback message is lost.
func (p *Plan) DropFeedback() bool {
	if p == nil || p.cfg.FeedbackLoss == 0 {
		return false
	}
	if p.drop.Float64() < p.cfg.FeedbackLoss {
		p.stats.FeedbackDropped++
		return true
	}
	return false
}

// FeedbackDelayNs returns the extra delivery delay for the next surviving
// feedback message: uniform jitter plus, with probability FeedbackReorder,
// the reorder hold.
func (p *Plan) FeedbackDelayNs() int64 {
	if p == nil {
		return 0
	}
	var d int64
	if p.cfg.FeedbackJitterNs > 0 {
		d += p.jitter.Int63n(p.cfg.FeedbackJitterNs + 1)
	}
	if p.cfg.FeedbackReorder > 0 && p.reorder.Float64() < p.cfg.FeedbackReorder {
		d += p.cfg.ReorderDelayNs
		p.stats.FeedbackReordered++
	}
	if d > 0 {
		p.stats.FeedbackDelayed++
	}
	return d
}

// CorruptFeedback possibly flips one bit of the encoded message in place,
// reporting whether it did.
func (p *Plan) CorruptFeedback(data []byte) bool {
	if p == nil || p.cfg.FeedbackCorrupt == 0 || len(data) == 0 {
		return false
	}
	if p.corrupt.Float64() >= p.cfg.FeedbackCorrupt {
		return false
	}
	bit := p.corrupt.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	p.stats.FeedbackCorrupted++
	return true
}

// DropData decides whether the next data frame is lost on its link.
func (p *Plan) DropData() bool {
	if p == nil || p.cfg.DataLoss == 0 {
		return false
	}
	if p.data.Float64() < p.cfg.DataLoss {
		p.stats.DataDropped++
		return true
	}
	return false
}

// CapacityScale returns the bottleneck capacity multiplier at simulation
// time nowNs: FlapFactor during the degraded phase of each flap period,
// 1 otherwise.
func (p *Plan) CapacityScale(nowNs int64) float64 {
	if p == nil || p.cfg.FlapPeriodNs <= 0 || p.cfg.FlapDownNs <= 0 || nowNs < 0 {
		return 1
	}
	if (nowNs+p.flapPhase)%p.cfg.FlapPeriodNs < p.cfg.FlapDownNs {
		return p.cfg.FlapFactor
	}
	return 1
}

// SampleBlanked reports whether congestion-point feedback generated at
// simulation time nowNs falls in a sampling blackout window, counting the
// suppression when it does.
func (p *Plan) SampleBlanked(nowNs int64) bool {
	if p == nil || p.cfg.BlackoutPeriodNs <= 0 || p.cfg.BlackoutDurNs <= 0 || nowNs < 0 {
		return false
	}
	if (nowNs+p.blackoutPhase)%p.cfg.BlackoutPeriodNs < p.cfg.BlackoutDurNs {
		p.stats.SamplesBlanked++
		return true
	}
	return false
}
