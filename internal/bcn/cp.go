package bcn

import (
	"fmt"
	"math"
)

// CPConfig configures a congestion point.
type CPConfig struct {
	// CPID identifies this congestion point in outgoing messages.
	CPID CPID
	// SA is the switch interface address placed in messages.
	SA MAC
	// Q0 is the queue reference in bits.
	Q0 float64
	// Qsc is the severe-congestion threshold in bits (0 disables).
	Qsc float64
	// W is the weight on Δq in σ.
	W float64
	// Pm is the sampling probability; frames are sampled
	// deterministically every round(1/Pm) frames, as in the draft.
	Pm float64
}

// Validate checks the configuration.
func (c CPConfig) Validate() error {
	if c.CPID == 0 {
		return fmt.Errorf("bcn: CPID must be nonzero")
	}
	if !(c.Q0 > 0) {
		return fmt.Errorf("bcn: Q0=%v must be positive", c.Q0)
	}
	if c.Qsc != 0 && c.Qsc <= c.Q0 {
		return fmt.Errorf("bcn: Qsc=%v must exceed Q0=%v", c.Qsc, c.Q0)
	}
	if !(c.W > 0) {
		return fmt.Errorf("bcn: W=%v must be positive", c.W)
	}
	if !(c.Pm > 0) || c.Pm > 1 {
		return fmt.Errorf("bcn: Pm=%v must be in (0, 1]", c.Pm)
	}
	return nil
}

// CongestionPoint implements the switch-side BCN logic: it tracks queue
// occupancy, samples arriving frames deterministically with probability
// Pm, computes σ = (q0 − q) − w·Δq over the last sampling interval
// (paper eq. 1), and emits BCN messages toward the sampled frame's source.
//
// CongestionPoint is not safe for concurrent use; the discrete-event
// simulator drives it from a single goroutine.
type CongestionPoint struct {
	cfg      CPConfig
	interval int // frames between samples = round(1/Pm)

	queueBits float64 // current queue occupancy
	// Arrival/departure bit counts since the last sample, for Δq.
	arrivedBits  float64
	departedBits float64

	framesSinceSample int

	// Counters for observability.
	samples, posMsgs, negMsgs uint64
}

// NewCongestionPoint validates the config and builds the congestion point.
func NewCongestionPoint(cfg CPConfig) (*CongestionPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	interval := int(math.Round(1 / cfg.Pm))
	if interval < 1 {
		interval = 1
	}
	return &CongestionPoint{cfg: cfg, interval: interval}, nil
}

// QueueBits returns the tracked queue occupancy in bits.
func (cp *CongestionPoint) QueueBits() float64 { return cp.queueBits }

// Stats returns (samples, positive messages, negative messages) counters.
func (cp *CongestionPoint) Stats() (samples, pos, neg uint64) {
	return cp.samples, cp.posMsgs, cp.negMsgs
}

// Severe reports whether the queue currently exceeds the severe-congestion
// threshold (PAUSE should be asserted upstream).
func (cp *CongestionPoint) Severe() bool {
	return cp.cfg.Qsc > 0 && cp.queueBits > cp.cfg.Qsc
}

// validSize reports whether a frame size is usable for queue accounting;
// a non-finite or non-positive size would poison queueBits and every σ
// computed after it.
func validSize(sizeBits float64) bool {
	return sizeBits > 0 && !math.IsInf(sizeBits, 0)
}

// OnDeparture informs the congestion point that sizeBits left the queue.
func (cp *CongestionPoint) OnDeparture(sizeBits float64) {
	if !validSize(sizeBits) {
		return
	}
	cp.queueBits -= sizeBits
	if cp.queueBits < 0 {
		cp.queueBits = 0
	}
	cp.departedBits += sizeBits
}

// Arrival describes a frame arriving at the congestion point.
type Arrival struct {
	// SizeBits is the frame size.
	SizeBits float64
	// Src is the frame's source address (destination for a message).
	Src MAC
	// RRT is the congestion point ID carried in the frame's rate
	// regulator tag, zero if untagged.
	RRT CPID
}

// OnArrival enqueues a frame and, if this frame is sampled, evaluates the
// feedback and possibly returns a BCN message to send back to the source.
// The message rule follows §II-B of the paper: a negative message (σ < 0)
// is always sent to the sampled source; a positive message (σ > 0) is sent
// only when the frame carries an RRT matching this CPID and the queue is
// below the reference q0.
func (cp *CongestionPoint) OnArrival(a Arrival) *Message {
	if !validSize(a.SizeBits) {
		return nil
	}
	cp.queueBits += a.SizeBits
	cp.arrivedBits += a.SizeBits
	cp.framesSinceSample++
	if cp.framesSinceSample < cp.interval {
		return nil
	}
	cp.framesSinceSample = 0
	cp.samples++

	deltaQ := cp.arrivedBits - cp.departedBits
	cp.arrivedBits, cp.departedBits = 0, 0

	sigma := (cp.cfg.Q0 - cp.queueBits) - cp.cfg.W*deltaQ
	switch {
	case sigma < 0:
		cp.negMsgs++
		m := &Message{DA: a.Src, SA: cp.cfg.SA, CPID: cp.cfg.CPID, Sigma: sigma}
		if cp.Severe() {
			m.Flags |= FlagSevere
		}
		return m
	case sigma > 0 && a.RRT == cp.cfg.CPID && cp.queueBits < cp.cfg.Q0:
		cp.posMsgs++
		return &Message{DA: a.Src, SA: cp.cfg.SA, CPID: cp.cfg.CPID, Sigma: sigma}
	default:
		return nil
	}
}
