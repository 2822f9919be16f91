package bcn

import (
	"fmt"
	"math"
)

// GainMode selects how the reaction point applies feedback.
type GainMode int

// Gain modes.
const (
	// ModeDraft applies eq. (2) per message with the feedback expressed
	// in quantized FB units saturated to ±FBSat (the draft quantizes σ
	// before it reaches the regulator): r += Gi·Ru·fb on positive
	// messages and r *= 1 + Gd·fb on negative ones. The rate is
	// constant between messages.
	ModeDraft GainMode = iota + 1
	// ModeFluid holds the most recent feedback σ and applies the
	// continuous-time law of paper eq. (7) between messages
	// (zero-order hold):
	//
	//	dr/dt = Gi·Ru·σ        while σ > 0
	//	dr/dt = Gd·σ·r         while σ < 0
	//
	// so the packet-level mechanism has the fluid model as its exact
	// continuum limit whenever messages refresh σ quickly relative to
	// the system dynamics. This is the mode used by the
	// model-validation experiments.
	ModeFluid
)

// FBSat is the saturation magnitude of the quantized feedback in ModeDraft
// (the draft and QCN quantize σ to a few bits before it reaches the
// regulator).
const FBSat = 64.0

// RPConfig configures a reaction point (rate regulator).
type RPConfig struct {
	// Ru, Gi, Gd are the draft gains (see core.Default*).
	Ru, Gi, Gd float64
	// MinRate floors the sending rate (bits/s); must be positive so the
	// multiplicative decrease cannot strand the source at zero.
	MinRate float64
	// MaxRate caps the sending rate (the NIC line rate), bits/s.
	MaxRate float64
	// Mode selects the feedback application law (default ModeFluid).
	Mode GainMode
}

// Validate checks the configuration.
func (c RPConfig) Validate() error {
	if !(c.Ru > 0) || !(c.Gi > 0) || !(c.Gd > 0) {
		return fmt.Errorf("bcn: gains Ru=%v Gi=%v Gd=%v must be positive", c.Ru, c.Gi, c.Gd)
	}
	if !(c.MinRate > 0) {
		return fmt.Errorf("bcn: MinRate=%v must be positive", c.MinRate)
	}
	if !(c.MaxRate > c.MinRate) {
		return fmt.Errorf("bcn: MaxRate=%v must exceed MinRate=%v", c.MaxRate, c.MinRate)
	}
	if c.Mode != ModeDraft && c.Mode != ModeFluid {
		return fmt.Errorf("bcn: unknown gain mode %d", c.Mode)
	}
	return nil
}

// ReactionPoint is the source-side BCN rate regulator: it holds the
// current sending rate, applies the modified AIMD of paper eq. (2) on
// incoming messages, and manages the congestion-point association that
// drives rate-regulator tagging (RRT).
//
// ReactionPoint is not safe for concurrent use.
type ReactionPoint struct {
	cfg RPConfig
	// rateRef is the rate at reference time tRef; in ModeFluid the
	// current rate is obtained by integrating the held feedback from
	// tRef to now.
	rateRef float64
	tRef    float64
	// sigma is the held feedback in bits (ModeFluid); hold is false
	// until the first message arrives.
	sigma float64
	hold  bool
	// cpid is the associated congestion point (zero when none).
	cpid CPID
}

// NewReactionPoint builds a regulator starting at initialRate.
func NewReactionPoint(cfg RPConfig, initialRate float64) (*ReactionPoint, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeFluid
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if initialRate < cfg.MinRate || initialRate > cfg.MaxRate {
		return nil, fmt.Errorf("bcn: initial rate %v outside [%v, %v]", initialRate, cfg.MinRate, cfg.MaxRate)
	}
	return &ReactionPoint{cfg: cfg, rateRef: initialRate}, nil
}

// Rate returns the sending rate at time now (seconds). In ModeFluid the
// held feedback is integrated forward from the last message; in ModeDraft
// the rate is piecewise constant so now is ignored.
func (rp *ReactionPoint) Rate(now float64) float64 {
	if rp.cfg.Mode == ModeDraft || !rp.hold || now <= rp.tRef {
		return rp.rateRef
	}
	dt := now - rp.tRef
	var r float64
	if rp.sigma > 0 {
		r = rp.rateRef + rp.cfg.Gi*rp.cfg.Ru*rp.sigma*dt
	} else {
		// dr/dt = Gd·σ·r with σ < 0 decays exponentially.
		r = rp.rateRef * math.Exp(rp.cfg.Gd*rp.sigma*dt)
	}
	return clampRate(r, rp.cfg.MinRate, rp.cfg.MaxRate)
}

// Associate binds the regulator to a congestion point without waiting for
// a negative message, as if a prior congestion episode had tagged it.
// Validation experiments use this so positive feedback flows from t = 0,
// matching the fluid model's assumption of continuous feedback.
func (rp *ReactionPoint) Associate(cpid CPID) { rp.cpid = cpid }

// Associated returns the congestion point this source is currently bound
// to (zero when none).
func (rp *ReactionPoint) Associated() CPID { return rp.cpid }

// Tag returns the RRT to place in outgoing data frames: the associated
// CPID, or zero when the source is unassociated.
func (rp *ReactionPoint) Tag() CPID { return rp.cpid }

// OnMessage applies a BCN message received at time now (seconds).
// Malformed messages (nil, non-finite feedback, non-finite timestamps)
// are ignored rather than acted on: a corrupted feedback frame must
// never NaN the rate or strand it outside [MinRate, MaxRate].
func (rp *ReactionPoint) OnMessage(m *Message, now float64) {
	if m == nil || math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) ||
		math.IsNaN(now) || math.IsInf(now, 0) {
		return
	}
	// Materialize the current rate before changing the held feedback.
	r := rp.Rate(now)
	rp.rateRef = r
	if now > rp.tRef {
		rp.tRef = now
	}

	sigma := m.Sigma
	switch {
	case sigma < 0:
		rp.cpid = m.CPID // associate with the congestion point
		if rp.cfg.Mode == ModeDraft {
			factor := 1 + rp.cfg.Gd*saturatedFB(sigma)
			if factor < 0.1 {
				factor = 0.1 // guard a single huge negative jump
			}
			rp.rateRef = clampRate(rp.rateRef*factor, rp.cfg.MinRate, rp.cfg.MaxRate)
			return
		}
		rp.sigma = sigma
		rp.hold = true
	case sigma > 0:
		if rp.cfg.Mode == ModeDraft {
			rp.rateRef = clampRate(rp.rateRef+rp.cfg.Gi*rp.cfg.Ru*saturatedFB(sigma), rp.cfg.MinRate, rp.cfg.MaxRate)
			if rp.rateRef >= rp.cfg.MaxRate {
				rp.cpid = 0 // fully recovered: stop tagging
			}
			return
		}
		rp.sigma = sigma
		rp.hold = true
		if rp.rateRef >= rp.cfg.MaxRate {
			rp.cpid = 0
		}
	default:
		// σ = 0: refresh timing only.
	}
}

// saturatedFB converts σ in bits to saturated FB units.
func saturatedFB(sigma float64) float64 {
	fb := sigma / FBUnit
	if fb > FBSat {
		return FBSat
	}
	if fb < -FBSat {
		return -FBSat
	}
	return fb
}

func clampRate(r, lo, hi float64) float64 {
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}
