// Package fera implements the Forward Explicit Rate Advertising proposal
// of Jain et al. ("An Explicit Rate Control Framework for Lossless
// Ethernet Operation", ICC 2008) — the third 802.1Qau candidate the paper
// surveys, a descendant of the ERICA algorithm for ATM ABR. Instead of
// feeding queue state back for the sources to integrate, the switch
// *computes* each flow's allowed rate and advertises it explicitly; the
// sources simply obey.
//
// The implementation keeps ERICA's measurement structure but simplifies
// the advertisement to the per-window fair share C·target/N (the CCR/z
// refinement needs per-flow current rates, which the simplified message
// format does not carry; the simplification is documented in DESIGN.md).
// The package also provides the E2CM hybrid (Gusat et al., IBM Zurich):
// BCN-style multiplicative decrease on negative feedback plus
// advertised-rate approach on positive feedback — the fourth proposal.
package fera

import (
	"fmt"
	"math"

	"bcnphase/internal/bcn"
)

// DefaultTargetUtilization is the ERICA capacity target (advertised rates
// sum to this fraction of the link so the queue drains).
const DefaultTargetUtilization = 0.95

// CPConfig configures a FERA congestion point.
type CPConfig struct {
	// CPID identifies the congestion point.
	CPID bcn.CPID
	// SA is the switch interface address for messages.
	SA bcn.MAC
	// Capacity is the outgoing link rate in bits/s.
	Capacity float64
	// TargetUtilization is the ERICA target (default 0.95).
	TargetUtilization float64
	// IntervalBits is the measurement window length in arrived bits;
	// the advertisement is recomputed once per window (default C/1000,
	// ≈1 ms of traffic at full load).
	IntervalBits float64
	// Pm is the per-frame advertisement probability: each sampled frame
	// triggers an explicit-rate message to its source.
	Pm float64
}

// Validate checks the configuration.
func (c CPConfig) Validate() error {
	if c.CPID == 0 {
		return fmt.Errorf("fera: CPID must be nonzero")
	}
	if !(c.Capacity > 0) {
		return fmt.Errorf("fera: Capacity=%v must be positive", c.Capacity)
	}
	if c.TargetUtilization != 0 && (c.TargetUtilization <= 0 || c.TargetUtilization > 1) {
		return fmt.Errorf("fera: TargetUtilization=%v must be in (0, 1]", c.TargetUtilization)
	}
	if c.IntervalBits < 0 {
		return fmt.Errorf("fera: IntervalBits=%v must be non-negative", c.IntervalBits)
	}
	if !(c.Pm > 0) || c.Pm > 1 {
		return fmt.Errorf("fera: Pm=%v must be in (0, 1]", c.Pm)
	}
	return nil
}

// advertiser holds the shared ERICA measurement-window state.
type advertiser struct {
	capacityTarget float64
	intervalBits   float64

	windowArrived  float64
	windowDeparted float64
	activeInWin    map[bcn.MAC]struct{}

	advert      float64 // advertised fair share, bits/s
	overloadZ   float64 // arrivals/departures over the last window
	activeFlows int
}

func newAdvertiser(capacityTarget, intervalBits float64) *advertiser {
	return &advertiser{
		capacityTarget: capacityTarget,
		intervalBits:   intervalBits,
		activeInWin:    make(map[bcn.MAC]struct{}),
		advert:         capacityTarget,
		overloadZ:      1,
		activeFlows:    1,
	}
}

func (ad *advertiser) onArrival(src bcn.MAC, bits float64) {
	ad.windowArrived += bits
	ad.activeInWin[src] = struct{}{}
	if ad.windowArrived < ad.intervalBits {
		return
	}
	if ad.windowDeparted > 0 {
		ad.overloadZ = ad.windowArrived / ad.windowDeparted
	}
	ad.activeFlows = len(ad.activeInWin)
	if ad.activeFlows < 1 {
		ad.activeFlows = 1
	}
	ad.advert = ad.capacityTarget / float64(ad.activeFlows)
	ad.windowArrived = 0
	ad.windowDeparted = 0
	ad.activeInWin = make(map[bcn.MAC]struct{}, ad.activeFlows)
}

func (ad *advertiser) onDeparture(bits float64) { ad.windowDeparted += bits }

// CongestionPoint is the switch-side FERA logic. It satisfies the same
// interface as the BCN and QCN congestion points so netsim can swap it
// in; the advertised rate travels in the message's Sigma field (positive,
// in bits/s — FERA has no negative feedback).
type CongestionPoint struct {
	cfg      CPConfig
	interval int
	ad       *advertiser

	queueBits float64
	frames    int

	samples, msgs uint64
}

// NewCongestionPoint builds the congestion point.
func NewCongestionPoint(cfg CPConfig) (*CongestionPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TargetUtilization == 0 {
		cfg.TargetUtilization = DefaultTargetUtilization
	}
	if cfg.IntervalBits == 0 {
		cfg.IntervalBits = cfg.Capacity / 1000 // ≈1 ms of traffic at line rate
	}
	interval := int(math.Round(1 / cfg.Pm))
	if interval < 1 {
		interval = 1
	}
	return &CongestionPoint{
		cfg:      cfg,
		interval: interval,
		ad:       newAdvertiser(cfg.Capacity*cfg.TargetUtilization, cfg.IntervalBits),
	}, nil
}

// QueueBits returns the tracked occupancy.
func (cp *CongestionPoint) QueueBits() float64 { return cp.queueBits }

// Stats returns (samples, advertisements, 0): FERA has no negative
// messages.
func (cp *CongestionPoint) Stats() (samples, pos, neg uint64) {
	return cp.samples, cp.msgs, 0
}

// Severe always reports false; PAUSE is a separate layer.
func (cp *CongestionPoint) Severe() bool { return false }

// OnDeparture tracks a departing frame.
func (cp *CongestionPoint) OnDeparture(sizeBits float64) {
	cp.queueBits -= sizeBits
	if cp.queueBits < 0 {
		cp.queueBits = 0
	}
	cp.ad.onDeparture(sizeBits)
}

// Advertised returns the current advertised fair share in bits/s.
func (cp *CongestionPoint) Advertised() float64 { return cp.ad.advert }

// OverloadZ returns the last window's arrivals/departures ratio.
func (cp *CongestionPoint) OverloadZ() float64 { return cp.ad.overloadZ }

// OnArrival processes an arriving frame and, if sampled, returns an
// explicit-rate message toward its source.
func (cp *CongestionPoint) OnArrival(a bcn.Arrival) *bcn.Message {
	cp.queueBits += a.SizeBits
	cp.ad.onArrival(a.Src, a.SizeBits)

	cp.frames++
	if cp.frames < cp.interval {
		return nil
	}
	cp.frames = 0
	cp.samples++
	cp.msgs++
	return &bcn.Message{
		DA:    a.Src,
		SA:    cp.cfg.SA,
		CPID:  cp.cfg.CPID,
		Sigma: cp.ad.advert, // positive: the advertised rate in bits/s
	}
}

// RateRegulator is the FERA source side: it obeys the advertised rate.
type RateRegulator struct {
	rate     float64
	min, max float64
	cpid     bcn.CPID
	updates  uint64
}

// NewRateRegulator builds an obeying regulator.
func NewRateRegulator(minRate, maxRate, initialRate float64) (*RateRegulator, error) {
	if !(minRate > 0) || !(maxRate > minRate) {
		return nil, fmt.Errorf("fera: rate bounds [%v, %v] invalid", minRate, maxRate)
	}
	if initialRate < minRate || initialRate > maxRate {
		return nil, fmt.Errorf("fera: initial rate %v outside [%v, %v]", initialRate, minRate, maxRate)
	}
	return &RateRegulator{rate: initialRate, min: minRate, max: maxRate}, nil
}

// Rate returns the current rate (constant between messages).
func (rp *RateRegulator) Rate(_ float64) float64 { return rp.rate }

// Tag returns the congestion point last heard from.
func (rp *RateRegulator) Tag() bcn.CPID { return rp.cpid }

// Updates returns the number of advertisements applied.
func (rp *RateRegulator) Updates() uint64 { return rp.updates }

// OnMessage obeys an advertised rate. Malformed messages (nil or
// non-finite advertisements) are ignored defensively.
func (rp *RateRegulator) OnMessage(m *bcn.Message, _ float64) {
	if m == nil || math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) {
		return
	}
	if m.Sigma <= 0 {
		return // FERA messages always carry a positive rate
	}
	rp.updates++
	rp.cpid = m.CPID
	r := m.Sigma
	if r < rp.min {
		r = rp.min
	}
	if r > rp.max {
		r = rp.max
	}
	rp.rate = r
}

// E2CMCongestionPoint is the switch side of the Extended Ethernet
// Congestion Management hybrid: BCN's σ feedback drives negative messages
// while positive messages carry the FERA advertisement instead of raw σ.
type E2CMCongestionPoint struct {
	bcnCP *bcn.CongestionPoint
	ad    *advertiser
}

// NewE2CMCongestionPoint composes the BCN congestion point with an ERICA
// advertiser at the given capacity.
func NewE2CMCongestionPoint(cfg bcn.CPConfig, capacity float64) (*E2CMCongestionPoint, error) {
	if !(capacity > 0) {
		return nil, fmt.Errorf("fera: capacity=%v must be positive", capacity)
	}
	cp, err := bcn.NewCongestionPoint(cfg)
	if err != nil {
		return nil, err
	}
	return &E2CMCongestionPoint{
		bcnCP: cp,
		ad:    newAdvertiser(capacity*DefaultTargetUtilization, capacity/1000),
	}, nil
}

// QueueBits returns the tracked occupancy.
func (cp *E2CMCongestionPoint) QueueBits() float64 { return cp.bcnCP.QueueBits() }

// Stats forwards the BCN counters.
func (cp *E2CMCongestionPoint) Stats() (samples, pos, neg uint64) { return cp.bcnCP.Stats() }

// Severe forwards the BCN severe indication.
func (cp *E2CMCongestionPoint) Severe() bool { return cp.bcnCP.Severe() }

// OnDeparture tracks a departing frame.
func (cp *E2CMCongestionPoint) OnDeparture(sizeBits float64) {
	cp.bcnCP.OnDeparture(sizeBits)
	cp.ad.onDeparture(sizeBits)
}

// OnArrival processes an arrival: negative BCN messages pass through
// unchanged; positive ones are rewritten to carry the advertisement.
func (cp *E2CMCongestionPoint) OnArrival(a bcn.Arrival) *bcn.Message {
	cp.ad.onArrival(a.Src, a.SizeBits)
	m := cp.bcnCP.OnArrival(a)
	if m != nil && m.Sigma > 0 {
		m.Sigma = cp.ad.advert
	}
	return m
}

// E2CMRegulator is the source side of the hybrid: BCN multiplicative
// decrease on negative feedback, half-way move toward the advertised
// rate on positive feedback.
type E2CMRegulator struct {
	rate     float64
	min, max float64
	gd       float64
	cpid     bcn.CPID
}

// NewE2CMRegulator builds the hybrid regulator. gd is the BCN decrease
// gain applied to quantized feedback units.
func NewE2CMRegulator(gd, minRate, maxRate, initialRate float64) (*E2CMRegulator, error) {
	if !(gd > 0) || gd*bcn.FBSat >= 1 {
		return nil, fmt.Errorf("fera: e2cm gd=%v must be positive with gd·%v < 1", gd, bcn.FBSat)
	}
	if !(minRate > 0) || !(maxRate > minRate) {
		return nil, fmt.Errorf("fera: rate bounds [%v, %v] invalid", minRate, maxRate)
	}
	if initialRate < minRate || initialRate > maxRate {
		return nil, fmt.Errorf("fera: initial rate %v outside bounds", initialRate)
	}
	return &E2CMRegulator{rate: initialRate, min: minRate, max: maxRate, gd: gd}, nil
}

// Rate returns the current rate.
func (rp *E2CMRegulator) Rate(_ float64) float64 { return rp.rate }

// Tag returns the congestion point last heard from.
func (rp *E2CMRegulator) Tag() bcn.CPID { return rp.cpid }

// OnMessage applies either branch of the hybrid. Malformed messages (nil
// or non-finite feedback) are ignored defensively.
func (rp *E2CMRegulator) OnMessage(m *bcn.Message, _ float64) {
	if m == nil || math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) {
		return
	}
	switch {
	case m.Sigma < 0:
		rp.cpid = m.CPID
		fb := m.Sigma / bcn.FBUnit
		if fb < -bcn.FBSat {
			fb = -bcn.FBSat
		}
		factor := 1 + rp.gd*fb
		if factor < 0.1 {
			factor = 0.1
		}
		rp.rate *= factor
	case m.Sigma > 0:
		rp.cpid = m.CPID
		rp.rate = 0.5 * (rp.rate + m.Sigma)
	default:
		return
	}
	if rp.rate < rp.min {
		rp.rate = rp.min
	}
	if rp.rate > rp.max {
		rp.rate = rp.max
	}
}
