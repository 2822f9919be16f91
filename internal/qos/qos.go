// Package qos is the serving tier's closed-loop overload-protection
// layer: it replaces the static "queue full → 429" shed threshold of
// the original admission path with the same discipline the paper
// applies to switch buffers — explicit, well-damped feedback between
// measured load and admitted rate.
//
// The pieces, each usable on its own and composed by internal/serve:
//
//   - Controller: an RCP-style admission-rate law. The server measures
//     its own service rate and queue depth each control interval and
//     updates an advertised admission rate R with two feedback terms —
//     rate mismatch α·(C−y) and queue excursion β·(q−q0)/d — exactly
//     the two forms of feedback the RCP literature shows are needed for
//     a well-damped loop (one term alone either limit-cycles or
//     converges only in special regimes). R is enforced by a token
//     bucket and advertised to clients in Bcn-Advertised-Rate and
//     Retry-After headers, so backoff happens by instruction, not by
//     timeout. The closed loop's (q, R) dynamics are exported as a
//     phaseplane.VectorField-compatible function and proven spiral-
//     stable (not limit-cycling) by the repo's own return-map tooling
//     in the self-hosting stability test.
//
//   - Watchdog: a brownout ladder (Full → NoNewSweeps → CachedOnly →
//     Drain) driven by queue, goroutine and heap signals with
//     hysteresis, so the server degrades in explicit, observable steps
//     instead of falling over. Storage failures pin the ladder at
//     CachedOnly terminally — a server whose journal cannot fsync keeps
//     answering from cache rather than crashing mid-sweep.
//
//   - FairQueue + TenantLimiter: weighted fair queueing of worker
//     slots over a tenant key plus per-tenant token buckets at the
//     tenant's fair share of the advertised rate, so one greedy tenant
//     saturating the cluster cannot starve the others.
//
//   - Deadline propagation: client deadlines ride a Bcn-Deadline-Ms
//     header, are decremented per hop (client → coordinator → worker →
//     solver context), and doom work that cannot finish in budget
//     before it occupies a worker — cancelled early beats shed late.
//
//   - Breaker: the one keyed circuit breaker (consecutive-failure
//     threshold, cooldown, single half-open probe, terminal quarantine)
//     that internal/serve keys by parameter region and internal/cluster
//     by worker base URL.
//
//   - Retry-After codec: SetRetryAfter writes every Retry-After header
//     (whole seconds, rounded up, at least 1) and RetryAfter reads it
//     back, so every client paces retries from the same hint.
//
// Every mechanism emits qos_* series through internal/telemetry.
package qos

import "time"

// Config aggregates the knobs of the whole QoS layer; internal/serve
// embeds it in its own Config. The zero value of every field gets a
// sensible default from the respective constructor.
type Config struct {
	// Controller tunes the RCP-style admission-rate law.
	Controller ControllerConfig
	// Brownout tunes the degradation ladder thresholds.
	Brownout BrownoutConfig
	// Tenant tunes per-tenant isolation (weights, burst, idle expiry).
	Tenant TenantConfig
	// HopMargin is the per-hop deadline decrement: the budget a request
	// forwards downstream is its remaining budget minus this margin, and
	// a request whose remaining budget is below it is doomed on arrival
	// (default 25ms).
	HopMargin time.Duration
	// TickInterval paces the background control/watchdog loop (default
	// Controller.Interval). Negative disables the background ticker —
	// tests drive Tick explicitly.
	TickInterval time.Duration
}

// WithDefaults fills zero fields; embedding layers (internal/serve)
// call it once at construction so their gates see resolved values.
func (c Config) WithDefaults() Config {
	c.Controller = c.Controller.withDefaults()
	c.Brownout = c.Brownout.withDefaults()
	c.Tenant = c.Tenant.withDefaults()
	if c.HopMargin == 0 {
		c.HopMargin = DefaultHopMargin
	}
	if c.TickInterval == 0 {
		c.TickInterval = c.Controller.Interval
	}
	return c
}
