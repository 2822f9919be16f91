package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bcnphase/internal/qos"
)

// qosState bundles the closed-loop overload-protection machinery when
// Config.QoS is set. All pieces live in internal/qos; serve only
// threads them through the request path.
type qosState struct {
	cfg     qos.Config
	ctl     *qos.Controller
	wd      *qos.Watchdog
	tenants *qos.TenantLimiter
	fq      *qos.FairQueue
	metrics *qos.Metrics
	// volatile keeps the artifacts the configured Cache failed to
	// record once storage degraded, so they stay servable (not durable)
	// for the process lifetime.
	volatile *MemCache

	stop     chan struct{}
	stopOnce sync.Once
}

// newQoSState wires the QoS layer for a server: the controller sizes
// itself on the worker pool and the watchdog starts at Full.
func newQoSState(cfg *Config) *qosState {
	q := cfg.QoS.WithDefaults()
	if cfg.QoS.Controller.QueueTarget <= 0 {
		// Regulate to half the waiting room: deep enough to keep workers
		// busy, shallow enough that the shed threshold stays headroom.
		q.Controller.QueueTarget = float64(cfg.QueueCap) / 2
	}
	if q.Controller.Now == nil {
		q.Controller.Now = cfg.Now
	}
	if q.Tenant.Now == nil {
		q.Tenant.Now = cfg.Now
	}
	st := &qosState{
		cfg:      q,
		ctl:      qos.NewController(q.Controller, cfg.Workers),
		wd:       qos.NewWatchdog(q.Brownout),
		tenants:  qos.NewTenantLimiter(q.Tenant),
		fq:       qos.NewFairQueue(cfg.Workers),
		volatile: NewMemCache(),
		stop:     make(chan struct{}),
	}
	st.metrics = qos.NewMetrics(cfg.Registry, st.ctl, st.wd, st.tenants)
	return st
}

// run is the background control loop: one Tick per interval until Close.
func (q *qosState) run(s *Server) {
	t := time.NewTicker(q.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-t.C:
			s.qosTick()
		}
	}
}

// qosTick applies one control-loop step: feed the controller the live
// queue depth, move the brownout ladder and flip tenant enforcement.
// Tests drive it directly with a negative TickInterval.
func (s *Server) qosTick() {
	q := s.qos
	if q == nil {
		return
	}
	depth := len(s.queueSlots)
	frac := float64(depth) / float64(s.cfg.QueueCap)
	q.ctl.Tick(float64(depth))
	level := q.wd.Observe(frac)
	q.tenants.Congested(frac >= 0.5 || level > qos.Full)
	q.metrics.Ticks.Inc()
}

// Close stops the background control loop (no-op without QoS). The
// server keeps serving; only the ticker stops.
func (s *Server) Close() {
	if s.qos != nil {
		s.qos.stopOnce.Do(func() { close(s.qos.stop) })
	}
}

// qosRequest carries the per-request QoS facts parsed from headers.
type qosRequest struct {
	tenant      string
	class       string
	classWeight float64
	hasDeadline bool
	budget      time.Duration // as parsed from the wire
	deadlineAt  time.Time     // budget anchored at parse time
}

// parseQoSHeaders validates the tenant, class and deadline headers.
// Malformed values are client errors: admission math must never run on
// garbage keys.
func (s *Server) parseQoSHeaders(r *http.Request) (*qosRequest, error) {
	tenant, err := qos.ParseTenant(r.Header.Get(qos.TenantHeader))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", qos.TenantHeader, err)
	}
	class, weight, err := qos.ParseClass(r.Header.Get(qos.ClassHeader))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", qos.ClassHeader, err)
	}
	req := &qosRequest{tenant: tenant, class: class, classWeight: weight}
	budget, ok, err := qos.ParseDeadline(r.Header.Get(qos.DeadlineHeader))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", qos.DeadlineHeader, err)
	}
	if ok {
		req.hasDeadline = true
		req.budget = budget
		req.deadlineAt = s.now().Add(budget)
	}
	return req, nil
}

// stampQoSHeaders advertises the admission rate and brownout rung on
// every response — RCP-style explicit feedback, so clients pace by
// instruction instead of probing.
func (s *Server) stampQoSHeaders(w http.ResponseWriter) {
	q := s.qos
	if q == nil {
		return
	}
	w.Header().Set(qos.RateHeader, strconv.FormatFloat(q.ctl.AdvertisedRate(), 'f', 2, 64))
	w.Header().Set(qos.BrownoutHeader, q.wd.Level().String())
}

// qosAdmit runs the QoS gates that precede the waiting room: brownout
// rung, per-tenant fair share, then the global admission rate. It
// writes the response and returns false when the request is shed.
// Order matters: the tenant gate runs before the global bucket so a
// greedy tenant burns its own share, not the shared one.
func (s *Server) qosAdmit(w http.ResponseWriter, rid, key, kind string, qr *qosRequest) bool {
	q := s.qos
	level := q.wd.Level()
	switch {
	case level >= qos.CachedOnly:
		// Cache hits were already served above; everything else sheds.
		s.qosShed(w, rid, key, "brownout", http.StatusServiceUnavailable, q.ctl.RetryAfter(),
			fmt.Sprintf("server is in %s brownout", level))
		return false
	case level == qos.NoNewSweeps && (kind == KindSweep || kind == KindShard):
		s.qosShed(w, rid, key, "brownout", http.StatusServiceUnavailable, q.ctl.RetryAfter(),
			"new sweep jobs are shed in no-new-sweeps brownout")
		return false
	}
	rate := q.ctl.AdvertisedRate()
	if !q.tenants.Allow(qr.tenant, qr.classWeight, rate) {
		s.qosShed(w, rid, key, "tenant-limit", http.StatusTooManyRequests,
			q.tenants.RetryAfter(qr.tenant, rate),
			fmt.Sprintf("tenant %s is over its fair share of %.1f jobs/s", qr.tenant, rate))
		return false
	}
	if !q.ctl.Admit() {
		s.qosShed(w, rid, key, "rate-limit", http.StatusTooManyRequests, q.ctl.RetryAfter(),
			fmt.Sprintf("admission rate %.1f jobs/s exceeded", rate))
		return false
	}
	q.tenants.CountAdmitted(qr.tenant)
	q.metrics.Admitted.Inc()
	q.metrics.TenantAdmit.With(qr.tenant).Inc()
	return true
}

// qosShed writes one QoS rejection with explicit feedback.
func (s *Server) qosShed(w http.ResponseWriter, rid, key, reason string, status int, retry time.Duration, msg string) {
	s.qos.metrics.Shed.With(reason).Inc()
	s.metrics.shed.Inc()
	s.logf("rid=%s key=%s reject=%s", rid, key, reason)
	s.reject(w, status, retry, errorBody{
		Error: msg, Reason: reason,
		QueueDepth: len(s.queueSlots), Utilization: s.utilization(),
	})
}

// qosRecordFailure handles a failed artifact Record under QoS: the
// journal is declared storage-degraded, the brownout ladder pins at
// cached-only, and the artifact is kept servable in the volatile
// in-memory store. The job still succeeds from the client's view — marked
// non-durable via Bcn-Storage-Degraded — because recomputing it later
// is cheaper than losing it now.
func (s *Server) qosRecordFailure(w http.ResponseWriter, rid, key string, raw []byte, err error) {
	q := s.qos
	q.wd.Pin(qos.CachedOnly, "storage degraded: "+err.Error())
	q.metrics.StorageDegr.Inc()
	q.volatile.Record(key, raw)
	q.metrics.VolatileRecs.Inc()
	w.Header().Set(qos.StorageDegradedHeader, "1")
	s.logf("rid=%s key=%s storage-degraded err=%q", rid, key, err)
}

// QoSStatus is the /statusz QoS block.
type QoSStatus struct {
	AdvertisedRate   float64           `json:"advertised_rate"`
	CapacityEstimate float64           `json:"capacity_estimate"`
	ServiceTimeSec   float64           `json:"service_time_sec"`
	BrownoutLevel    string            `json:"brownout_level"`
	StoragePinned    bool              `json:"storage_pinned"`
	PinReason        string            `json:"pin_reason,omitempty"`
	Tenants          int               `json:"tenants"`
	TenantAdmitted   map[string]uint64 `json:"tenant_admitted,omitempty"`
	FairWaiting      int               `json:"fair_waiting"`
}

// qosStatus assembles the QoS block, nil without QoS.
func (s *Server) qosStatus() *QoSStatus {
	q := s.qos
	if q == nil {
		return nil
	}
	pinned, reason := q.wd.Pinned()
	return &QoSStatus{
		AdvertisedRate:   q.ctl.AdvertisedRate(),
		CapacityEstimate: q.ctl.Capacity(),
		ServiceTimeSec:   q.ctl.ServiceTime().Seconds(),
		BrownoutLevel:    q.wd.Level().String(),
		StoragePinned:    pinned,
		PinReason:        reason,
		Tenants:          q.tenants.Tenants(),
		TenantAdmitted:   q.tenants.Admitted(),
		FairWaiting:      q.fq.Waiting(),
	}
}
