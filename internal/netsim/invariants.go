package netsim

import (
	"math"

	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
)

// PredEventOrder flags a discrete event executing out of timestamp order
// (the event heap's contract). The remaining predicates are shared with
// the fluid layer via the core constants so violation tallies aggregate
// under the same keys across packet and fluid runs.
const PredEventOrder = "event-order"

// netGuard evaluates the packet-level model invariants during a run. All
// methods are nil-safe; a disabled guard costs one load and branch per
// call site.
//
// Violations raised inside event callbacks cannot propagate an error up
// through the event loop directly, so under the Strict policy the guard
// parks the *invariant.InvariantError in err and the Sim.Monitor hook
// (wired in RunContext) returns it after the offending event, aborting
// the run at that timestamp.
type netGuard struct {
	chk  *invariant.Checker
	on   bool // policy is not Off, cached from chk at construction
	cfg  *Config
	last Nanos // previous event timestamp, for the ordering check
	err  error // parked Strict abort

	// Clean-path windows, tolerances included. A NaN fails every
	// comparison and an infinity falls outside, so each check's fast path
	// is one range test and the finiteness split happens only on failure.
	qLo, qHi       float64 // queue occupancy: [0, BufferBits]
	rateLo, rateHi float64 // source rate: [0, LineRate]
	syncTol        float64 // switch vs congestion-point occupancy
}

// newNetGuard builds the guard for the configured policy. Under Off every
// check returns at its first branch.
func newNetGuard(cfg *Config) (*netGuard, error) {
	c, err := invariant.New(invariant.Config{Policy: cfg.Invariants})
	if err != nil {
		return nil, err
	}
	qTol, rateTol := 1e-9*cfg.BufferBits, 1e-9*cfg.LineRate
	return &netGuard{
		chk: c, on: c.Enabled(), cfg: cfg,
		qLo: -qTol, qHi: cfg.BufferBits + qTol,
		rateLo: -rateTol, rateHi: cfg.LineRate + rateTol,
		syncTol: 1e-6 * math.Max(1, cfg.BufferBits),
	}, nil
}

func (g *netGuard) enabled() bool { return g != nil && g.on }

// stats returns the tallies (zero value when disabled).
func (g *netGuard) stats() invariant.Stats {
	if g == nil {
		return invariant.Stats{}
	}
	return g.chk.Stats()
}

// park records a Strict abort for the Monitor hook to surface.
func (g *netGuard) park(err error) {
	if err != nil && g.err == nil {
		g.err = err
	}
}

// monitor is the Sim.Monitor hook of an enabled guard: it checks event
// ordering and surfaces any parked Strict violation. The clean path is
// one compare and one store, with the failure report out of line.
func (g *netGuard) monitor(at Nanos) error {
	if at < g.last {
		g.outOfOrder(at)
	} else {
		g.last = at
	}
	return g.err
}

// outOfOrder reports an event that ran before its predecessor's time.
func (g *netGuard) outOfOrder(at Nanos) {
	g.park(g.chk.Failf(PredEventOrder, at.Seconds(),
		"event at t=%dns executed after t=%dns", at, g.last))
}

// queue checks (and under Clamp projects) the bottleneck occupancy
// against 0 ≤ q ≤ B at time now. This runs on every frame arrival and
// departure, so the clean path is one range test: time conversion and
// detail formatting happen only once a check has already failed.
func (g *netGuard) queue(now Nanos, queueBits float64) float64 {
	if !g.enabled() || queueBits >= g.qLo && queueBits <= g.qHi {
		return queueBits
	}
	return g.queueFail(now, queueBits)
}

// queueFail reports (and under Clamp projects) an occupancy outside the
// clean-path window.
func (g *netGuard) queueFail(now Nanos, queueBits float64) float64 {
	if math.IsNaN(queueBits) || math.IsInf(queueBits, 0) {
		g.park(g.chk.Failf(core.PredFinite, now.Seconds(), "queue occupancy is %v", queueBits))
		return queueBits
	}
	v, err := g.chk.Range(core.PredQueueBounds, now.Seconds(), queueBits, 0, g.cfg.BufferBits, -g.qLo)
	g.park(err)
	return v
}

// cpSync cross-checks the congestion point's queue accounting against the
// switch's own occupancy: both count the same FIFO, so divergence means a
// bookkeeping bug in one of the layers.
func (g *netGuard) cpSync(now Nanos, switchBits, cpBits float64) {
	if !g.enabled() || math.Abs(switchBits-cpBits) <= g.syncTol {
		return
	}
	g.park(g.chk.Failf("cp-queue-sync", now.Seconds(),
		"congestion point tracks q=%g, switch holds q=%g", cpBits, switchBits))
}

// sourceRate checks one source's sending rate at a recorder sample:
// finite and within [0, LineRate] (with slack for rounding). Rates are
// owned by the rate regulators, so out-of-range values are recorded, not
// clamped, even under the Clamp policy.
func (g *netGuard) sourceRate(now Nanos, id int, rate float64) {
	if !g.enabled() || rate >= g.rateLo && rate <= g.rateHi {
		return
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		g.park(g.chk.Failf(core.PredFinite, now.Seconds(), "source %d rate is %v", id, rate))
		return
	}
	g.park(g.chk.Failf(core.PredRateBounds, now.Seconds(),
		"source %d rate %g outside [0, %g]", id, rate, g.cfg.LineRate))
}
