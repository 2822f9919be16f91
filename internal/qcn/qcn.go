// Package qcn implements Quantized Congestion Notification, the fourth
// 802.1Qau proposal the paper surveys (§II-A) and the one eventually
// standardized. QCN keeps BCN's congestion-point feedback
// σ-style measure but quantizes it to a few bits, sends only negative
// feedback, and compensates with source-driven self-increase (Fast
// Recovery byte-counter cycles followed by Active Increase) — removing
// BCN's dependence on positive messages, whose scarcity at low rates
// starves recovery.
//
// The package reuses the message and arrival types of internal/bcn so the
// two schemes are interchangeable inside internal/netsim.
package qcn

import (
	"fmt"
	"math"

	"bcnphase/internal/bcn"
)

// Defaults follow the 802.1Qau annex values, scaled to bits.
const (
	// DefaultGdQ is the decrease gain: rate *= 1 − GdQ·|fb| with
	// |fb| ≤ 63, so the deepest single decrease halves the rate.
	DefaultGdQ = 1.0 / 128
	// DefaultBCLimit is the Fast Recovery byte-counter cycle length in
	// bits (150 kB).
	DefaultBCLimit = 150e3 * 8
	// DefaultFastRecoveryCycles is the number of byte-counter cycles in
	// Fast Recovery before Active Increase starts.
	DefaultFastRecoveryCycles = 5
	// DefaultRAI is the Active Increase step in bits/s (5 Mbps).
	DefaultRAI = 5e6
	// FbBits is the quantization width of the feedback field.
	FbBits = 6
	// FbMax is the saturation magnitude of the quantized feedback.
	FbMax = 1<<FbBits - 1 // 63
)

// CPConfig configures a QCN congestion point.
type CPConfig struct {
	// CPID identifies the congestion point.
	CPID bcn.CPID
	// SA is the switch interface address for messages.
	SA bcn.MAC
	// Qeq is the equilibrium queue target in bits (BCN's q0).
	Qeq float64
	// W weighs the queue derivative in the feedback.
	W float64
	// Pm is the frame sampling probability (deterministic 1-in-1/Pm).
	Pm float64
}

// Validate checks the configuration.
func (c CPConfig) Validate() error {
	if c.CPID == 0 {
		return fmt.Errorf("qcn: CPID must be nonzero")
	}
	if !(c.Qeq > 0) {
		return fmt.Errorf("qcn: Qeq=%v must be positive", c.Qeq)
	}
	if !(c.W > 0) {
		return fmt.Errorf("qcn: W=%v must be positive", c.W)
	}
	if !(c.Pm > 0) || c.Pm > 1 {
		return fmt.Errorf("qcn: Pm=%v must be in (0, 1]", c.Pm)
	}
	return nil
}

// CongestionPoint is the switch-side QCN logic: like BCN's congestion
// point but with quantized, negative-only feedback.
type CongestionPoint struct {
	cfg      CPConfig
	interval int
	scale    float64

	queueBits float64
	qOld      float64
	frames    int

	samples, msgs uint64
}

// NewCongestionPoint validates and builds the congestion point.
func NewCongestionPoint(cfg CPConfig) (*CongestionPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	interval := int(math.Round(1 / cfg.Pm))
	if interval < 1 {
		interval = 1
	}
	// The quantization scale converts raw feedback (bits) to units so
	// that the strongest feedback, at q = 2·Qeq, saturates.
	scale := cfg.Qeq * (1 + 2*cfg.W) / FbMax
	return &CongestionPoint{cfg: cfg, interval: interval, scale: scale}, nil
}

// QueueBits returns the tracked occupancy.
func (cp *CongestionPoint) QueueBits() float64 { return cp.queueBits }

// Stats returns (samples, positive, negative) message counters; QCN never
// sends positive messages.
func (cp *CongestionPoint) Stats() (samples, pos, neg uint64) {
	return cp.samples, 0, cp.msgs
}

// Severe reports severe congestion; QCN itself has no PAUSE threshold, so
// this is always false (PFC handles that layer separately).
func (cp *CongestionPoint) Severe() bool { return false }

// OnDeparture tracks a departing frame.
func (cp *CongestionPoint) OnDeparture(sizeBits float64) {
	cp.queueBits -= sizeBits
	if cp.queueBits < 0 {
		cp.queueBits = 0
	}
}

// OnArrival enqueues a frame; on sampled frames it computes the QCN
// feedback Fb = −(qoff + w·qdelta) and, when Fb < 0, returns a message
// carrying the quantized value. qdelta is the queue change since the last
// sample (a discrete derivative), matching BCN's Δq term.
func (cp *CongestionPoint) OnArrival(a bcn.Arrival) *bcn.Message {
	cp.queueBits += a.SizeBits
	cp.frames++
	if cp.frames < cp.interval {
		return nil
	}
	cp.frames = 0
	cp.samples++

	qoff := cp.queueBits - cp.cfg.Qeq
	qdelta := cp.queueBits - cp.qOld
	cp.qOld = cp.queueBits

	fbRaw := -(qoff + cp.cfg.W*qdelta)
	if fbRaw >= 0 {
		return nil // QCN: no positive feedback
	}
	// Quantize to FbBits and saturate.
	q := math.Round(-fbRaw / cp.scale)
	if q > FbMax {
		q = FbMax
	}
	if q < 1 {
		q = 1
	}
	cp.msgs++
	// Sigma carries the quantized magnitude back in bits-equivalent so
	// that bcn.Message stays scheme-agnostic: the RP re-derives |fb|
	// by dividing by the shared scale.
	return &bcn.Message{
		DA:    a.Src,
		SA:    cp.cfg.SA,
		CPID:  cp.cfg.CPID,
		Sigma: -q * cp.scale,
	}
}

// Scale exposes the quantization scale so reaction points can recover the
// integer feedback value.
func (cp *CongestionPoint) Scale() float64 { return cp.scale }

// RPConfig configures a QCN rate regulator.
type RPConfig struct {
	// GdQ is the multiplicative decrease gain per feedback unit.
	GdQ float64
	// BCLimit is the byte-counter cycle length in bits.
	BCLimit float64
	// FastRecoveryCycles counts the averaging cycles before Active
	// Increase.
	FastRecoveryCycles int
	// RAI is the Active Increase rate step (bits/s).
	RAI float64
	// MinRate and MaxRate clamp the sending rate.
	MinRate, MaxRate float64
	// FbScale must match the congestion point's quantization scale.
	FbScale float64
}

// Validate checks the configuration.
func (c RPConfig) Validate() error {
	if !(c.GdQ > 0) || c.GdQ*FbMax >= 1 {
		return fmt.Errorf("qcn: GdQ=%v must be positive with GdQ*63 < 1", c.GdQ)
	}
	if !(c.BCLimit > 0) {
		return fmt.Errorf("qcn: BCLimit=%v must be positive", c.BCLimit)
	}
	if c.FastRecoveryCycles <= 0 {
		return fmt.Errorf("qcn: FastRecoveryCycles=%d must be positive", c.FastRecoveryCycles)
	}
	if !(c.RAI > 0) {
		return fmt.Errorf("qcn: RAI=%v must be positive", c.RAI)
	}
	if !(c.MinRate > 0) || !(c.MaxRate > c.MinRate) {
		return fmt.Errorf("qcn: rate bounds [%v, %v] invalid", c.MinRate, c.MaxRate)
	}
	if !(c.FbScale > 0) {
		return fmt.Errorf("qcn: FbScale=%v must be positive", c.FbScale)
	}
	return nil
}

// DefaultRPConfig returns the annex defaults for the given rate bounds
// and quantization scale.
func DefaultRPConfig(minRate, maxRate, fbScale float64) RPConfig {
	return RPConfig{
		GdQ:                DefaultGdQ,
		BCLimit:            DefaultBCLimit,
		FastRecoveryCycles: DefaultFastRecoveryCycles,
		RAI:                DefaultRAI,
		MinRate:            minRate,
		MaxRate:            maxRate,
		FbScale:            fbScale,
	}
}

// RateRegulator is the source-side QCN state machine: multiplicative
// decrease on congestion messages, then Fast Recovery (byte-counter
// cycles averaging the current rate toward the pre-decrease target) and
// Active Increase (probing beyond the target).
type RateRegulator struct {
	cfg RPConfig

	current float64
	target  float64

	// bytes counts bits sent since the last cycle boundary; cycles
	// counts completed byte-counter cycles since the last decrease.
	bytes  float64
	cycles int

	cpid bcn.CPID
}

// NewRateRegulator builds a regulator starting at initialRate.
func NewRateRegulator(cfg RPConfig, initialRate float64) (*RateRegulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if initialRate < cfg.MinRate || initialRate > cfg.MaxRate {
		return nil, fmt.Errorf("qcn: initial rate %v outside [%v, %v]", initialRate, cfg.MinRate, cfg.MaxRate)
	}
	return &RateRegulator{cfg: cfg, current: initialRate, target: initialRate}, nil
}

// Rate returns the sending rate; QCN rates change only at discrete
// events, so the time argument is ignored (it exists for interface
// compatibility with the BCN regulator).
func (rp *RateRegulator) Rate(_ float64) float64 { return rp.current }

// Tag returns the congestion point this source last heard from; QCN data
// frames carry no RRT requirement, but tagging is harmless and keeps the
// switch-side interface uniform.
func (rp *RateRegulator) Tag() bcn.CPID { return rp.cpid }

// OnMessage applies a (always negative) congestion message. Malformed
// messages (nil or non-finite feedback) are ignored defensively so a
// corrupted frame cannot NaN the rate.
func (rp *RateRegulator) OnMessage(m *bcn.Message, _ float64) {
	if m == nil || math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) {
		return
	}
	if m.Sigma >= 0 {
		return // QCN has no positive messages; ignore defensively
	}
	fb := math.Round(-m.Sigma / rp.cfg.FbScale)
	if fb > FbMax {
		fb = FbMax
	}
	if fb < 1 {
		fb = 1
	}
	rp.cpid = m.CPID
	rp.target = rp.current
	rp.current *= 1 - rp.cfg.GdQ*fb
	if rp.current < rp.cfg.MinRate {
		rp.current = rp.cfg.MinRate
	}
	// Restart Fast Recovery.
	rp.bytes = 0
	rp.cycles = 0
}

// OnSend informs the regulator that sizeBits left the source; byte-counter
// cycle boundaries drive the self-increase state machine.
func (rp *RateRegulator) OnSend(sizeBits float64) {
	rp.bytes += sizeBits
	for rp.bytes >= rp.cfg.BCLimit {
		rp.bytes -= rp.cfg.BCLimit
		rp.cycle()
	}
}

// cycle advances one byte-counter cycle: Fast Recovery averages the
// current rate toward the target; Active Increase then probes above it.
func (rp *RateRegulator) cycle() {
	rp.cycles++
	if rp.cycles > rp.cfg.FastRecoveryCycles {
		// Active Increase: raise the target and close half the gap.
		rp.target += rp.cfg.RAI
		if rp.target > rp.cfg.MaxRate {
			rp.target = rp.cfg.MaxRate
		}
	}
	rp.current = 0.5 * (rp.current + rp.target)
	if rp.current > rp.cfg.MaxRate {
		rp.current = rp.cfg.MaxRate
	}
}
