package qos

import (
	"math"
	"sync"
	"time"
)

// Default controller parameters. The gain pair (alpha, beta) is chosen
// inside the spiral-stability region of the closed loop's linearization:
// with service time d, the (q, R) Jacobian at the equilibrium (q0, C)
// is [[0, 1], [−β/d², −α/d]], whose trace −α/d is negative and whose
// determinant β/d² is positive for any positive gains, so the
// equilibrium is always attracting; it is a well-damped spiral (rather
// than an overdamped node crawling back or an underdamped ring) when
// α² < 4β. The defaults 0.4² = 0.16 < 0.8 sit comfortably inside,
// mirroring the stable-gain region the paper's phase-plane analysis
// carves out for BCN itself. The self-hosting test in stability_test.go
// verifies this with the return-map tooling instead of trusting the
// algebra.
const (
	DefaultAlpha    = 0.4
	DefaultBeta     = 0.2
	DefaultInterval = 100 * time.Millisecond
	// DefaultMinRate keeps the advertised rate strictly positive so a
	// fully backed-off server can still climb out of a deep brownout.
	DefaultMinRate = 0.5
	// DefaultMaxRate bounds the advertised rate absolutely; each tick
	// additionally caps it at HeadroomFactor times the measured
	// capacity.
	DefaultMaxRate = 1e6
	// HeadroomFactor bounds how far above measured capacity the
	// advertised rate may probe: enough to refill an emptying queue
	// quickly, bounded so a mis-measured capacity cannot advertise an
	// unservable rate for long.
	HeadroomFactor = 4.0
	// DefaultBurstSeconds sizes the admission token bucket in seconds of
	// advertised rate.
	DefaultBurstSeconds = 0.5
	// seedServiceSecs seeds the mean-service-time estimate before the
	// first completion is observed.
	seedServiceSecs = 0.05
)

// ControllerConfig tunes the RCP-style admission-rate law. Its gains
// are the constants DefaultAlpha and DefaultBeta.
type ControllerConfig struct {
	// Interval is the control period T (default DefaultInterval).
	Interval time.Duration
	// QueueTarget is the operating queue depth q0 the loop regulates to,
	// in jobs. It must be positive: like the paper's equilibrium queue,
	// a small standing queue is what keeps workers busy across arrival
	// gaps (default 8).
	QueueTarget float64
	// MinRate and MaxRate clamp the advertised rate in jobs/second
	// (defaults DefaultMinRate, DefaultMaxRate).
	MinRate float64
	MaxRate float64
	// InitialRate is the advertised rate before the first tick; the
	// default starts wide open at MaxRate so an idle server never sheds,
	// and the first overloaded tick pulls it down to measured capacity.
	InitialRate float64
	// BurstSeconds sizes the token bucket (default DefaultBurstSeconds).
	BurstSeconds float64
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.QueueTarget <= 0 {
		c.QueueTarget = 8
	}
	if c.MinRate <= 0 {
		c.MinRate = DefaultMinRate
	}
	if c.MaxRate <= 0 {
		c.MaxRate = DefaultMaxRate
	}
	if c.InitialRate <= 0 {
		c.InitialRate = c.MaxRate
	}
	if c.BurstSeconds <= 0 {
		c.BurstSeconds = DefaultBurstSeconds
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Controller computes and enforces the advertised admission rate. All
// methods are safe for concurrent use. Create with NewController, feed
// it Admit/Completed events from the request path, and call Tick each
// control interval with the live queue depth.
type Controller struct {
	cfg     ControllerConfig
	workers int

	mu         sync.Mutex
	rate       float64   // advertised admission rate, jobs/sec
	tokens     float64   // admission bucket level
	lastRefill time.Time // bucket refill anchor
	lastTick   time.Time
	admitted   uint64  // arrivals admitted since last tick
	ewmaSecs   float64 // mean observed service time d
	capacity   float64 // last capacity estimate C = workers/d
}

// NewController builds a controller for a pool of the given worker
// count, applying defaults.
func NewController(cfg ControllerConfig, workers int) *Controller {
	cfg = cfg.withDefaults()
	if workers <= 0 {
		workers = 1
	}
	now := cfg.Now()
	return &Controller{
		cfg:        cfg,
		workers:    workers,
		rate:       cfg.InitialRate,
		tokens:     math.Max(1, cfg.InitialRate*cfg.BurstSeconds),
		lastRefill: now,
		lastTick:   now,
		ewmaSecs:   seedServiceSecs,
		capacity:   float64(workers) / seedServiceSecs,
	}
}

// Admit draws one admission token, refilling the bucket at the
// advertised rate first. A false return means the request should be
// shed with the controller's Retry-After hint.
func (c *Controller) Admit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refillLocked(c.cfg.Now())
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	c.admitted++
	return true
}

// refillLocked tops the bucket up for the time elapsed since the last
// refill, capped at the burst size.
func (c *Controller) refillLocked(now time.Time) {
	dt := now.Sub(c.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	c.lastRefill = now
	burst := math.Max(1, c.rate*c.cfg.BurstSeconds)
	c.tokens = math.Min(burst, c.tokens+c.rate*dt)
}

// Completed feeds one finished job's wall-clock duration into the
// service-time estimate the capacity term is derived from.
func (c *Controller) Completed(d time.Duration) {
	secs := d.Seconds()
	if secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ewmaSecs = 0.8*c.ewmaSecs + 0.2*secs
}

// Tick applies one step of the control law given the live queue depth:
//
//	R ← R · (1 + (T/d) · (α·(C − y) − β·(q − q0)/d) / C)
//
// where C = workers/d is the measured service capacity, y the admitted
// rate over the elapsed interval, and d the mean service time. Both
// feedback terms matter: the rate term alone equalizes input to
// capacity but lets the queue wander; the queue term alone rings. The
// result is clamped to [MinRate, min(MaxRate, HeadroomFactor·C)].
func (c *Controller) Tick(queueDepth float64) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := now.Sub(c.lastTick).Seconds()
	if elapsed <= 0 {
		return
	}
	c.lastTick = now
	y := float64(c.admitted) / elapsed
	c.admitted = 0

	d := math.Max(c.ewmaSecs, 1e-3)
	capacity := float64(c.workers) / d
	c.capacity = capacity
	// The update step uses min(T, elapsed-capped) so a long gap between
	// ticks (idle server, stalled ticker) cannot apply one giant,
	// destabilizing correction.
	step := math.Min(elapsed, 4*c.cfg.Interval.Seconds())
	feedback := DefaultAlpha*(capacity-y) - DefaultBeta*(queueDepth-c.cfg.QueueTarget)/d
	c.rate *= 1 + (step/d)*feedback/capacity
	ceiling := math.Min(c.cfg.MaxRate, HeadroomFactor*capacity)
	c.rate = math.Min(math.Max(c.rate, c.cfg.MinRate), ceiling)
	c.refillLocked(now)
}

// AdvertisedRate is the current admission rate in jobs/second — the
// value of the Bcn-Advertised-Rate header.
func (c *Controller) AdvertisedRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rate
}

// Capacity is the last measured service-capacity estimate in
// jobs/second.
func (c *Controller) Capacity() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// ServiceTime is the mean observed service time estimate.
func (c *Controller) ServiceTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.ewmaSecs * float64(time.Second))
}

// RetryAfter is the pacing hint for a rate-shed request: the time until
// the bucket accrues one token at the advertised rate, floored at one
// second because the header has whole-second resolution.
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rate <= 0 {
		return time.Second
	}
	deficit := 1 - c.tokens
	if deficit < 1 {
		deficit = 1
	}
	d := time.Duration(deficit / c.rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// VectorField returns the closed-loop (q, R) dynamics of this
// configuration under a constant offered load and service capacity, in
// the continuous-time limit of Tick — the object the self-hosting
// stability test hands to internal/phaseplane. x is queue depth q, y is
// advertised rate R:
//
//	dq/dt = min(offered, R) − C   (clamped: an empty queue cannot drain)
//	dR/dt = (R/d) · (α·(C − y) − β·(q − q0)/d) / C
//
// with d the mean service time and C = workers/d. Like the paper's
// switched fluid model, the q ≥ 0 clamp makes the field piecewise
// smooth; away from the boundary the equilibrium (q0, C) has Jacobian
// [[0, 1], [−β/d², −α/d]] — an attracting spiral whenever α² < 4β.
func (cfg ControllerConfig) VectorField(workers int, serviceSecs, offered float64) func(q, r float64) (dq, dr float64) {
	cfg = cfg.withDefaults()
	if workers <= 0 {
		workers = 1
	}
	d := math.Max(serviceSecs, 1e-3)
	capacity := float64(workers) / d
	return func(q, r float64) (float64, float64) {
		y := math.Min(offered, r)
		dq := y - capacity
		if q <= 0 && dq < 0 {
			dq = 0
		}
		dr := (r / d) * (DefaultAlpha*(capacity-y) - DefaultBeta*(q-cfg.QueueTarget)/d) / capacity
		return dq, dr
	}
}
