package cluster

// WorkerBreakerStatus is one worker's breaker snapshot for /statusz. The
// coordinator's per-worker circuit breaker is qos.Breaker keyed by
// worker base URL.
type WorkerBreakerStatus struct {
	Worker      string `json:"worker"`
	State       string `json:"state"` // "closed", "open", "half-open", "quarantined"
	Consecutive int    `json:"consecutive_failures"`
	Trips       uint64 `json:"trips"`
	// RetryAfterSec is the remaining cooldown for an open worker.
	RetryAfterSec int64 `json:"retry_after_sec,omitempty"`
}

// BreakerSnapshot lists every worker's breaker state, in worker order.
func (c *Coordinator) BreakerSnapshot() []WorkerBreakerStatus {
	snap := c.breaker.Snapshot()
	out := make([]WorkerBreakerStatus, len(snap))
	for i, st := range snap {
		out[i] = WorkerBreakerStatus{Worker: st.Key, State: st.State, Consecutive: st.Consecutive,
			Trips: st.Trips, RetryAfterSec: st.RetryAfterSec}
	}
	return out
}
