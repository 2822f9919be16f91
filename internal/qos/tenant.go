package qos

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Header names for the tenant/QoS wire protocol. Values survive
// proxies because they are plain tokens.
const (
	// TenantHeader carries the tenant key ([A-Za-z0-9._-]{1,64}).
	TenantHeader = "Bcn-Tenant"
	// ClassHeader carries the QoS class (interactive|standard|batch).
	ClassHeader = "Bcn-QoS-Class"
	// DeadlineHeader carries the remaining deadline budget in integer
	// milliseconds (see deadline.go).
	DeadlineHeader = "Bcn-Deadline-Ms"
	// RateHeader advertises the admission rate in jobs/second.
	RateHeader = "Bcn-Advertised-Rate"
	// BrownoutHeader reports the brownout rung in force on a response.
	BrownoutHeader = "Bcn-Brownout-Level"
	// StorageDegradedHeader marks a response served while the journal is
	// degraded (value "1"); the artifact is volatile, not durable.
	StorageDegradedHeader = "Bcn-Storage-Degraded"
)

// AnonTenant is the tenant attributed to requests without a tenant
// header. It competes like any other tenant, so unlabeled traffic
// cannot starve labeled traffic.
const AnonTenant = "anon"

// maxTenantKey bounds the tenant key length on the wire.
const maxTenantKey = 64

// Class weights: an interactive job outranks a standard job 4:1, a
// batch job gets a quarter share.
const (
	ClassInteractive = "interactive"
	ClassStandard    = "standard"
	ClassBatch       = "batch"
)

// ParseTenant validates a tenant-key header value. Empty maps to
// AnonTenant; malformed values (bad runes, overlong) are an error so
// callers answer 400 rather than silently bucketing garbage.
func ParseTenant(v string) (string, error) {
	if v == "" {
		return AnonTenant, nil
	}
	if len(v) > maxTenantKey {
		return "", fmt.Errorf("tenant key exceeds %d bytes", maxTenantKey)
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return "", fmt.Errorf("tenant key has invalid byte %q at %d", c, i)
		}
	}
	return v, nil
}

// ParseClass validates a QoS-class header value and returns its
// scheduling weight. Empty means standard.
func ParseClass(v string) (string, float64, error) {
	switch v {
	case "", ClassStandard:
		return ClassStandard, 1, nil
	case ClassInteractive:
		return ClassInteractive, 4, nil
	case ClassBatch:
		return ClassBatch, 0.25, nil
	default:
		return "", 0, fmt.Errorf("unknown qos class %q", v)
	}
}

// TenantConfig tunes per-tenant isolation.
type TenantConfig struct {
	// Weights overrides the scheduling weight of specific tenants
	// (default 1.0 each, scaled by QoS class per request). A weight that
	// is not positive and finite is ignored.
	Weights map[string]float64
	// BurstSeconds sizes each tenant's token bucket in seconds of its
	// fair-share rate (default 2).
	BurstSeconds float64
	// Headroom is the multiplier over exact fair share each tenant's
	// bucket refills at — slightly above 1 so a lone active tenant is
	// not needlessly clipped (default 1.25).
	Headroom float64
	// IdleExpiry garbage-collects tenant state untouched for this long
	// (default 5m).
	IdleExpiry time.Duration
	// MaxTenants caps tracked tenants; beyond it, new tenants share the
	// anon bucket rather than growing state unboundedly (default 1024).
	MaxTenants int
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.BurstSeconds <= 0 {
		c.BurstSeconds = 2
	}
	if c.Headroom <= 0 {
		c.Headroom = 1.25
	}
	if c.IdleExpiry <= 0 {
		c.IdleExpiry = 5 * time.Minute
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// tenantState is one tenant's bucket + bookkeeping.
type tenantState struct {
	weight   float64
	tokens   float64
	lastFill time.Time
	lastSeen time.Time
	admitted uint64 // lifetime admits, for fairness accounting
}

// TenantLimiter enforces per-tenant token buckets at each tenant's
// weighted fair share of the advertised admission rate. It is
// work-conserving: buckets are only enforced while the server is
// congested (Congested(true) — queue above half or brownout above
// Full), so a lone tenant on an idle server runs at full speed.
type TenantLimiter struct {
	cfg TenantConfig

	mu        sync.Mutex
	tenants   map[string]*tenantState
	congested bool
}

// NewTenantLimiter builds an empty limiter.
func NewTenantLimiter(cfg TenantConfig) *TenantLimiter {
	return &TenantLimiter{cfg: cfg.withDefaults(), tenants: make(map[string]*tenantState)}
}

// Congested flips enforcement. Call from the control tick with the
// server's congestion signal.
func (t *TenantLimiter) Congested(on bool) {
	t.mu.Lock()
	t.congested = on
	t.mu.Unlock()
}

// Allow draws one token from the tenant's bucket, where the bucket
// refills at (weight/totalWeight)·advertisedRate·Headroom. classWeight
// scales the tenant's configured weight for this request's QoS class.
// Returns false (shed with Retry-After) only under congestion.
func (t *TenantLimiter) Allow(tenant string, classWeight, advertisedRate float64) bool {
	now := t.cfg.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stateLocked(tenant, now)
	if classWeight > 0 {
		st.weight = t.baseWeight(tenant) * classWeight
	}
	st.lastSeen = now
	if !t.congested {
		return true
	}
	share := t.shareLocked(st, advertisedRate)
	// Refill at fair share.
	dt := now.Sub(st.lastFill).Seconds()
	if dt > 0 {
		st.lastFill = now
		burst := math.Max(1, share*t.cfg.BurstSeconds)
		st.tokens = math.Min(burst, st.tokens+share*dt)
	}
	if st.tokens < 1 {
		return false
	}
	st.tokens--
	return true
}

// CountAdmitted records one fully-admitted job for tenant — called
// after every downstream gate (the global admission bucket) has also
// passed, so the per-tenant ledger sums exactly to the global admit
// counter.
func (t *TenantLimiter) CountAdmitted(tenant string) {
	now := t.cfg.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stateLocked(tenant, now)
	st.lastSeen = now
	st.admitted++
}

// RetryAfter is the pacing hint for a tenant-shed request at the
// tenant's current fair share.
func (t *TenantLimiter) RetryAfter(tenant string, advertisedRate float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.tenants[tenant]
	if !ok {
		return time.Second
	}
	share := t.shareLocked(st, advertisedRate)
	if share <= 0 {
		return time.Minute
	}
	d := time.Duration(float64(time.Second) / share)
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// shareLocked computes the tenant's weighted share of advertisedRate.
func (t *TenantLimiter) shareLocked(st *tenantState, advertisedRate float64) float64 {
	total := 0.0
	for _, s := range t.tenants {
		total += s.weight
	}
	if total <= 0 {
		total = st.weight
	}
	if total <= 0 {
		return advertisedRate
	}
	return advertisedRate * (st.weight / total) * t.cfg.Headroom
}

// stateLocked returns (creating if needed) the tenant's state,
// expiring idle tenants opportunistically.
func (t *TenantLimiter) stateLocked(tenant string, now time.Time) *tenantState {
	if st, ok := t.tenants[tenant]; ok {
		return st
	}
	// Opportunistic GC before growing.
	if len(t.tenants) >= t.cfg.MaxTenants {
		for k, s := range t.tenants {
			if now.Sub(s.lastSeen) > t.cfg.IdleExpiry {
				delete(t.tenants, k)
			}
		}
	}
	if len(t.tenants) >= t.cfg.MaxTenants {
		// At capacity: overflow tenants share the anon bucket.
		if st, ok := t.tenants[AnonTenant]; ok {
			return st
		}
		tenant = AnonTenant
	}
	st := &tenantState{weight: t.baseWeight(tenant), tokens: 1, lastFill: now, lastSeen: now}
	t.tenants[tenant] = st
	return st
}

// baseWeight is the tenant's configured weight, or 1 when none is
// configured or the configured one is not a positive finite number (an
// infinite weight would zero every other tenant's share).
func (t *TenantLimiter) baseWeight(tenant string) float64 {
	if w, ok := t.cfg.Weights[tenant]; ok && w > 0 && w <= math.MaxFloat64 {
		return w
	}
	return 1
}

// Admitted reports lifetime fully-admitted jobs per tenant (counted by
// CountAdmitted) — the fairness series the soak asserts on.
func (t *TenantLimiter) Admitted() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.tenants))
	for k, s := range t.tenants {
		out[k] = s.admitted
	}
	return out
}

// Tenants reports how many tenants are currently tracked.
func (t *TenantLimiter) Tenants() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.tenants)
}

// tenantCtxKey carries the tenant key through contexts across layers
// (serve → cluster dispatch) without an import cycle.
type tenantCtxKey struct{}

// WithTenant returns a context carrying the tenant key downstream.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext recovers the tenant key, or "" when absent.
func TenantFromContext(ctx context.Context) string {
	v, _ := ctx.Value(tenantCtxKey{}).(string)
	return v
}
