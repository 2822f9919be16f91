package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/invariant"
	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
	"bcnphase/internal/sweep"
	"bcnphase/internal/telemetry"
)

// Cache is the server's completed-artifact store, keyed by Spec.Key
// content hashes. runstate.Journal satisfies it (giving crash-safe,
// restart-surviving dedup); MemCache is the journal-less fallback.
// Implementations must be safe for concurrent use.
type Cache interface {
	// Lookup returns the stored artifact for key, if present.
	Lookup(key string) ([]byte, bool)
	// Record durably stores the artifact (valid JSON) under key.
	Record(key string, val []byte) error
	// Len is the number of stored artifacts.
	Len() int
}

// MemCache is an in-memory Cache for servers run without a journal
// directory: dedup works for the process lifetime but does not survive
// restarts.
type MemCache struct {
	mu sync.RWMutex
	t  runstate.Table
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache { return &MemCache{} }

// Lookup implements Cache. The artifact is a read-only slice (see
// runstate.Table.Lookup).
func (c *MemCache) Lookup(key string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Lookup(key)
}

// Record implements Cache. It stores a copy of val; a superseded value
// stays in the table's memory for the cache's lifetime.
func (c *MemCache) Record(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Put(key, val)
	return nil
}

// Len implements Cache.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

// A parameter region's circuit opens after breakerThreshold
// consecutive strict invariant aborts and stays open for
// breakerCooldown.
const (
	breakerThreshold = 3
	breakerCooldown  = 30 * time.Second
)

// Config configures a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// Workers bounds concurrently executing jobs (default 4).
	Workers int
	// QueueCap bounds jobs admitted but waiting for a worker; a full
	// waiting room sheds new submissions with 429 (default 4×Workers).
	QueueCap int
	// DefaultTimeout is the per-job budget when the spec names none
	// (default 30s); MaxTimeout caps what a spec may ask for (default
	// 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Invariants is the policy applied when a spec does not name one.
	Invariants invariant.Policy
	// Cache stores completed artifacts for idempotent dedup; nil uses a
	// fresh MemCache.
	Cache Cache
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// Registry receives the server's metrics (and, through the shared
	// job instruments, the solver/sweep/netsim series of every executed
	// job). Nil creates a private registry, so /metrics always serves.
	// A registry must not be shared between Servers: the live gauges it
	// registers are per-server.
	Registry *telemetry.Registry
	// Log, when non-nil, receives one line per notable request event
	// (accept, finish, shed, breaker reject), each carrying the request
	// ID echoed in the X-Request-ID response header.
	Log io.Writer
	// QoS, when non-nil, enables the closed-loop overload-protection
	// layer (internal/qos): RCP-style adaptive admission with
	// Bcn-Advertised-Rate feedback, the brownout ladder, per-tenant
	// weighted fair queueing, deadline propagation, and a volatile
	// in-memory store that keeps artifacts servable once Cache fails to
	// record them. Nil keeps the static-shed path byte-for-byte unchanged.
	QoS *qos.Config
}

// Server is the supervised job service. Create with New, mount
// Handler, stop with Drain.
type Server struct {
	cfg     Config
	breaker *qos.Breaker
	cache   Cache
	now     func() time.Time

	// workerSlots and queueSlots are counting semaphores: a handler
	// holds a queue slot while waiting and a worker slot while
	// executing, so len() of each is the live depth for /statusz and
	// readiness.
	workerSlots chan struct{}
	queueSlots  chan struct{}

	mu       sync.Mutex
	draining bool
	active   int // accepted jobs not yet finished (drain waits on this)
	inflight map[string]*inflightJob
	ewmaSecs float64 // completed-job duration estimate for Retry-After

	// registry-backed telemetry: /statusz and /metrics read the same
	// series the server increments.
	registry *telemetry.Registry
	metrics  *serverMetrics
	jobm     jobMetrics
	tracer   *telemetry.Tracer

	// startMono anchors the monotonic uptime; always the real clock
	// (not cfg.Now) so uptime never runs backwards under a test clock.
	startMono time.Time
	reqSeq    atomic.Uint64

	// qos is the closed-loop overload-protection state; nil when
	// Config.QoS is nil (legacy static-shed path).
	qos *qosState

	// witness is this worker's slice of the coordinator leadership
	// quorum: it grants term leases over POST /v1/lease and supplies
	// the fencing floor that rejects a deposed leader's dispatches.
	witness witness
}

// inflightJob coalesces concurrent submissions of the same spec onto
// one execution: the leader runs, everyone else waits on done and
// serves the same bytes.
type inflightJob struct {
	done chan struct{}
	raw  []byte
	err  error
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.Cache == nil {
		cfg.Cache = NewMemCache()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:         cfg,
		cache:       cfg.Cache,
		now:         cfg.Now,
		workerSlots: make(chan struct{}, cfg.Workers),
		queueSlots:  make(chan struct{}, cfg.QueueCap),
		inflight:    make(map[string]*inflightJob),
		registry:    cfg.Registry,
		tracer:      telemetry.NewTracer(4096, nil),
		startMono:   time.Now(),
	}
	s.metrics = newServerMetrics(s.registry, s)
	s.jobm = newJobMetrics(s.registry)
	s.breaker = qos.NewBreaker(breakerThreshold, breakerCooldown, cfg.Now, s.metrics.breakerTransitions, nil)
	if cfg.QoS != nil {
		s.qos = newQoSState(&cfg)
		if s.qos.cfg.TickInterval > 0 {
			go s.qos.run(s)
		}
	}
	return s, nil
}

// Registry exposes the server's metrics registry (for -telemetry dumps
// by the embedding binary).
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// Tracer exposes the server's span recorder.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// nextRequestID mints a process-unique request ID. IDs appear in
// response headers, error bodies, and log lines — never inside artifact
// JSON, which must stay byte-identical for a given spec.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("req-%08x-%06d", uint32(s.startMono.UnixNano()), s.reqSeq.Add(1))
}

// logf emits one request-log line when Config.Log is set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "serve: "+format+"\n", args...)
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleGet)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.Handle("GET /metrics", s.registry.Handler())
	telemetry.RegisterPprof(mux)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Reason is a machine-readable cause: "malformed-spec", "shed",
	// "draining", "breaker-open", "deadline", "panic", "killed",
	// "invariant-abort", "not-found", "internal"; with QoS also
	// "malformed-qos-header", "deadline-doomed", "brownout",
	// "tenant-limit", "rate-limit".
	Reason string `json:"reason"`
	// RetryAfterSec mirrors the Retry-After header when retrying makes
	// sense.
	RetryAfterSec int64 `json:"retry_after_sec,omitempty"`
	// QueueDepth and Utilization are the live feedback a shed client
	// uses to pace its retry (RCP-style explicit feedback: the server
	// says how congested it is instead of silently dropping).
	QueueDepth  int     `json:"queue_depth,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	// Violation carries the invariant detail of a strict abort.
	Violation string `json:"violation,omitempty"`
	// Region is the breaker region of a quarantined request.
	Region string `json:"region,omitempty"`
	// RequestID echoes the X-Request-ID header so a failed response can
	// be correlated with the server's log lines.
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Error responses pick up the request ID the handler stamped on the
	// response headers, so every failure is correlatable with the log.
	if eb, ok := v.(errorBody); ok && eb.RequestID == "" {
		if rid := w.Header().Get("X-Request-ID"); rid != "" {
			eb.RequestID = rid
			v = eb
		}
	}
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode failure","reason":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// reject writes an error response, setting Retry-After when positive.
func (s *Server) reject(w http.ResponseWriter, status int, retryAfter time.Duration, body errorBody) {
	body.RetryAfterSec = qos.SetRetryAfter(w.Header(), retryAfter)
	writeJSON(w, status, body)
}

// retryAfter estimates how long a shed client should wait: the waiting
// room's drain time at the observed mean job duration, clamped to
// [1s, 60s]. It is explicit feedback, not a promise.
func (s *Server) retryAfter() time.Duration {
	s.mu.Lock()
	mean := s.ewmaSecs
	s.mu.Unlock()
	if mean <= 0 {
		mean = 1
	}
	waiting := len(s.queueSlots)
	secs := mean * float64(waiting+1) / float64(s.cfg.Workers)
	switch {
	case secs < 1:
		secs = 1
	case secs > 60:
		secs = 60
	}
	return time.Duration(secs * float64(time.Second))
}

func (s *Server) utilization() float64 {
	return float64(len(s.workerSlots)) / float64(s.cfg.Workers)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginJob marks one accepted job; it fails when a drain has started,
// so acceptance and drain cannot race past each other.
func (s *Server) beginJob() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Server) endJob() {
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
}

// observeDuration feeds the Retry-After estimator.
func (s *Server) observeDuration(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	secs := d.Seconds()
	if s.ewmaSecs == 0 {
		s.ewmaSecs = secs
		return
	}
	s.ewmaSecs = 0.8*s.ewmaSecs + 0.2*secs
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := s.nextRequestID()
	w.Header().Set("X-Request-ID", rid)
	s.stampQoSHeaders(w)
	if s.isDraining() {
		s.reject(w, http.StatusServiceUnavailable, time.Second, errorBody{
			Error: "server is draining", Reason: "draining",
		})
		return
	}
	// Fencing: a dispatch stamped with a leadership term below the
	// witness's floor comes from a deposed coordinator. Answer 409
	// stale-term — terminal, never retried — before cache, admission or
	// coalescing get a look: even a cache hit would let a dead leader
	// keep believing it leads. Requests without the header (single
	//-coordinator deployments, direct bcnsim submissions) skip the check.
	if th := r.Header.Get(cluster.TermHeader); th != "" {
		term, perr := strconv.ParseUint(th, 10, 64)
		if perr != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("malformed %s header: %v", cluster.TermHeader, perr), Reason: "malformed-term"})
			return
		}
		if floor := s.witness.fencingTerm(); term < floor {
			s.metrics.fencedJobs.Inc()
			s.logf("fenced dispatch at term %d (witnessed term %d)", term, floor)
			w.Header().Set(cluster.TermHeader, strconv.FormatUint(floor, 10))
			writeJSON(w, http.StatusConflict, errorBody{
				Error:  fmt.Sprintf("dispatch term %d is stale: this worker has witnessed term %d", term, floor),
				Reason: cluster.StaleTermReason,
			})
			return
		}
	}
	var qr *qosRequest
	if s.qos != nil {
		// The Drain rung admits nothing, not even cache hits: the
		// watchdog saw heap pressure beyond what serving can tolerate.
		if s.qos.wd.Level() >= qos.Drain {
			s.qosShed(w, rid, "", "brownout", http.StatusServiceUnavailable,
				s.qos.ctl.RetryAfter(), "server is in drain brownout")
			return
		}
		var herr error
		qr, herr = s.parseQoSHeaders(r)
		if herr != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: herr.Error(), Reason: "malformed-qos-header"})
			return
		}
		// A request that cannot finish inside its remaining budget is
		// doomed: answer now, before it occupies a queue slot or worker.
		if qr.hasDeadline && qos.Doomed(qr.budget) {
			s.qos.metrics.DeadlineDoom.Inc()
			writeJSON(w, http.StatusGatewayTimeout, errorBody{
				Error:  "deadline budget cannot cover the request",
				Reason: "deadline-doomed",
			})
			return
		}
	}
	sp, err := DecodeSpec(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes), DefaultMaxBodyBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error:  fmt.Sprintf("request body exceeds %d bytes", DefaultMaxBodyBytes),
				Reason: "body-too-large",
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Reason: "malformed-spec"})
		return
	}
	if sp.Invariants == "" && sp.Kind != KindShard {
		// A spec that names no policy runs under the server default, so
		// it is keyed under that policy too: an artifact computed under
		// one policy never answers a request that runs under another.
		// (Shard grids carry their own policy.)
		sp.Invariants = s.cfg.Invariants.String()
	}
	key, err := sp.Key()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Reason: "malformed-spec"})
		return
	}

	// Idempotent replay: a completed job answers from the artifact
	// store without touching admission, so resubmits are cheap even
	// under overload — and byte-identical, because the stored bytes are
	// served verbatim. Shards bypass the store both ways: their rows'
	// one durable home is the coordinator journal, which replays them,
	// so a worker copy would only be memory nobody reads. A sequential
	// duplicate shard recomputes the same deterministic bytes.
	stored := sp.Kind != KindShard
	if stored {
		if raw, ok := s.lookup(key); ok {
			s.metrics.cacheHits.Inc()
			s.logf("rid=%s kind=%s key=%s cache=hit", rid, sp.Kind, key)
			s.serveArtifact(w, key, raw, "hit")
			return
		}
	}

	region := sp.RegionKey()
	if ok, retry := s.breaker.Allow(region); !ok {
		s.metrics.breakerRejects.Inc()
		s.logf("rid=%s kind=%s key=%s reject=breaker-open region=%s", rid, sp.Kind, key, region)
		s.reject(w, http.StatusServiceUnavailable, retry, errorBody{
			Error:  fmt.Sprintf("parameter region %s is quarantined after repeated invariant aborts", region),
			Reason: "breaker-open", Region: region,
		})
		return
	}

	// Closed-loop admission: brownout rung, tenant fair share, global
	// advertised rate — all with explicit Retry-After feedback.
	if s.qos != nil && !s.qosAdmit(w, rid, key, sp.Kind, qr) {
		return
	}

	// Admission: the waiting room is bounded. No free slot means the
	// paper's overflow criterion would be violated by accepting — shed
	// now, with explicit feedback, rather than queue without bound.
	select {
	case s.queueSlots <- struct{}{}:
	default:
		s.metrics.shed.Inc()
		s.logf("rid=%s kind=%s key=%s reject=shed depth=%d", rid, sp.Kind, key, len(s.queueSlots))
		s.reject(w, http.StatusTooManyRequests, s.retryAfter(), errorBody{
			Error: "admission queue full", Reason: "shed",
			QueueDepth: len(s.queueSlots), Utilization: s.utilization(),
		})
		return
	}
	releaseQueue := func() { <-s.queueSlots }

	if !s.beginJob() { // drain started while we queued
		releaseQueue()
		s.reject(w, http.StatusServiceUnavailable, time.Second, errorBody{
			Error: "server is draining", Reason: "draining",
		})
		return
	}
	defer s.endJob()
	s.metrics.accepted.Inc()
	s.logf("rid=%s kind=%s key=%s accepted", rid, sp.Kind, key)

	// Coalesce duplicates of an in-flight job onto its leader.
	job, leader := s.registerInflight(key)
	if !leader {
		releaseQueue()
		s.metrics.coalesced.Inc()
		select {
		case <-job.done:
		case <-r.Context().Done():
			s.metrics.killed.Inc()
			s.reject(w, http.StatusRequestTimeout, 0, errorBody{
				Error: "client went away while coalesced", Reason: "killed",
			})
			return
		}
		s.finishResponse(w, key, region, job.raw, job.err, "coalesced")
		return
	}

	// Wait for a worker slot; a client that disconnects while queued
	// kills its own job, nobody else's. With QoS the wait goes through
	// the weighted fair queue, so slot grants interleave tenants instead
	// of following arrival order.
	if s.qos != nil {
		waitStart := time.Now()
		if err := s.qos.fq.Acquire(r.Context(), qr.tenant, qr.classWeight); err != nil {
			releaseQueue()
			s.metrics.killed.Inc()
			s.completeInflight(key, job, nil, err)
			s.reject(w, http.StatusRequestTimeout, 0, errorBody{
				Error: "client went away while queued", Reason: "killed",
			})
			return
		}
		s.qos.metrics.ObserveWait(time.Since(waitStart))
		// The fair queue holds exactly Workers grants, so this send
		// cannot block; the channel stays the depth gauge for /statusz.
		s.workerSlots <- struct{}{}
	} else {
		select {
		case s.workerSlots <- struct{}{}:
		case <-r.Context().Done():
			releaseQueue()
			s.metrics.killed.Inc()
			s.completeInflight(key, job, nil, r.Context().Err())
			s.reject(w, http.StatusRequestTimeout, 0, errorBody{
				Error: "client went away while queued", Reason: "killed",
			})
			return
		}
	}
	releaseQueue()

	span := s.tracer.Start("job")
	span.SetAttr("rid", rid)
	span.SetAttr("kind", sp.Kind)
	span.SetAttr("region", region)
	execCtx := r.Context()
	if s.qos != nil {
		// The tenant key rides the context into downstream dispatch
		// (cluster coordinator -> worker headers); the deadline budget —
		// what is left of it after queueing — caps the solver context so
		// doomed work cancels instead of running to be thrown away.
		execCtx = qos.WithTenant(execCtx, qr.tenant)
		if qr.hasDeadline {
			var cancel context.CancelFunc
			execCtx, cancel = qos.WithBudget(execCtx, qr.deadlineAt.Sub(s.now()))
			defer cancel()
		}
	}
	start := s.now()
	wallStart := time.Now()
	raw, execErr := s.execute(execCtx, sp, key)
	wall := time.Since(wallStart)
	<-s.workerSlots
	if s.qos != nil {
		s.qos.fq.Release()
		s.qos.ctl.Completed(wall)
	}
	s.observeDuration(s.now().Sub(start))
	s.metrics.jobSeconds.With(sp.Kind).Observe(wall.Seconds())
	if execErr != nil {
		span.SetAttr("error", execErr.Error())
	}
	span.End()
	s.logf("rid=%s kind=%s key=%s finished err=%v wall=%s", rid, sp.Kind, key, execErr != nil, wall.Round(time.Microsecond))

	if execErr == nil && stored {
		// Durability before acknowledgment, like the sweep checkpoint
		// contract: an artifact the store cannot keep is a failed job,
		// not a silently volatile success. Under QoS a storage failure
		// instead pins the cached-only brownout and serves the artifact
		// from the volatile tier, explicitly marked non-durable — the
		// computed result survives even though the journal is gone.
		if err := s.cache.Record(key, raw); err != nil {
			if s.qos != nil {
				s.qosRecordFailure(w, rid, key, raw, err)
			} else {
				execErr = fmt.Errorf("serve: record artifact: %w", err)
				raw = nil
			}
		}
	}
	s.completeInflight(key, job, raw, execErr)
	s.finishResponse(w, key, region, raw, execErr, "miss")
}

// registerInflight returns the coalescing entry for key and whether the
// caller is its leader (first submitter, responsible for execution).
func (s *Server) registerInflight(key string) (*inflightJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job, ok := s.inflight[key]; ok {
		return job, false
	}
	job := &inflightJob{done: make(chan struct{})}
	s.inflight[key] = job
	return job, true
}

// completeInflight publishes the leader's outcome to coalesced waiters
// and retires the entry (the cache answers future duplicates of stored
// kinds; a later duplicate shard runs again).
func (s *Server) completeInflight(key string, job *inflightJob, raw []byte, err error) {
	s.mu.Lock()
	job.raw, job.err = raw, err
	delete(s.inflight, key)
	s.mu.Unlock()
	close(job.done)
}

// finishResponse maps an execution outcome to its HTTP shape and feeds
// the breaker. Classification, in order: strict invariant abort
// (quarantinable property of the region), recovered panic (the job
// died, the pool did not), deadline, client kill, other failure.
func (s *Server) finishResponse(w http.ResponseWriter, key, region string, raw []byte, err error, cacheState string) {
	if err == nil {
		s.metrics.completed.Inc()
		s.breaker.Success(region)
		s.serveArtifact(w, key, raw, cacheState)
		return
	}
	s.metrics.failed.Inc()
	if v, ok := invariant.StrictAbort(err); ok {
		s.breaker.Failure(region)
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{
			Error: err.Error(), Reason: "invariant-abort",
			Violation: v.String(), Region: region,
		})
		return
	}
	// Non-strict failures release a half-open probe without closing or
	// re-opening the region: they say nothing about the parameters.
	s.breaker.Release(region)
	var pe *sweep.PanicError
	switch {
	case errors.As(err, &pe):
		writeJSON(w, http.StatusInternalServerError, errorBody{
			Error: "job panicked (worker pool unaffected): " + pe.Error(), Reason: "panic",
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{
			Error: "job deadline exceeded", Reason: "deadline",
		})
	case errors.Is(err, context.Canceled):
		s.metrics.killed.Inc()
		writeJSON(w, http.StatusRequestTimeout, errorBody{
			Error: "job cancelled", Reason: "killed",
		})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Reason: "internal"})
	}
}

// lookup reads the artifact store and then, under QoS, the volatile
// store that holds artifacts computed after storage degraded.
func (s *Server) lookup(key string) ([]byte, bool) {
	if raw, ok := s.cache.Lookup(key); ok {
		return raw, true
	}
	if s.qos != nil {
		return s.qos.volatile.Lookup(key)
	}
	return nil, false
}

func (s *Server) serveArtifact(w http.ResponseWriter, key string, raw []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-Key", key)
	w.Header().Set("X-Cache", cacheState)
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rid := s.nextRequestID()
	w.Header().Set("X-Request-ID", rid)
	key := r.PathValue("key")
	raw, ok := s.lookup(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no artifact for key " + key, Reason: "not-found"})
		return
	}
	s.metrics.cacheHits.Inc()
	s.serveArtifact(w, key, raw, "hit")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		s.reject(w, http.StatusServiceUnavailable, time.Second, errorBody{
			Error: "draining", Reason: "draining",
		})
		return
	}
	if s.qos != nil {
		if level := s.qos.wd.Level(); level >= qos.CachedOnly {
			s.reject(w, http.StatusServiceUnavailable, s.qos.ctl.RetryAfter(), errorBody{
				Error: "brownout level " + level.String(), Reason: "brownout",
			})
			return
		}
	}
	if len(s.queueSlots) >= s.cfg.QueueCap {
		s.reject(w, http.StatusServiceUnavailable, s.retryAfter(), errorBody{
			Error: "admission queue at shed threshold", Reason: "shed",
			QueueDepth: len(s.queueSlots), Utilization: s.utilization(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ready\n"))
}

// Status is the /statusz snapshot. Counter fields are read from the
// telemetry registry — /statusz and /metrics can never disagree.
type Status struct {
	Draining bool `json:"draining"`
	// UptimeSec is the monotonic process uptime (real clock, immune to
	// test-clock overrides and wall-clock jumps).
	UptimeSec      float64        `json:"uptime_sec"`
	Workers        int            `json:"workers"`
	QueueCap       int            `json:"queue_cap"`
	InFlight       int            `json:"in_flight"`
	Queued         int            `json:"queued"`
	ActiveJobs     int            `json:"active_jobs"`
	Utilization    float64        `json:"utilization"`
	Accepted       uint64         `json:"accepted"`
	Completed      uint64         `json:"completed"`
	Failed         uint64         `json:"failed"`
	Shed           uint64         `json:"shed"`
	CacheHits      uint64         `json:"cache_hits"`
	Coalesced      uint64         `json:"coalesced"`
	Killed         uint64         `json:"killed"`
	BreakerRejects uint64         `json:"breaker_rejects"`
	BreakerTrips   uint64         `json:"breaker_trips"`
	JournalLen     int            `json:"journal_len"`
	Breaker        []RegionStatus `json:"breaker,omitempty"`
	// QoS is the closed-loop admission block; absent without Config.QoS.
	QoS *QoSStatus `json:"qos,omitempty"`
	// Lease is this worker's leadership-witness state: the highest
	// granted term (the fencing floor) and the current holder, if any.
	Lease *LeaseStatus `json:"lease,omitempty"`
}

// RegionStatus is one breaker region's snapshot for /statusz.
type RegionStatus struct {
	Region      string `json:"region"`
	State       string `json:"state"` // "closed", "open", "half-open"
	Consecutive int    `json:"consecutive_failures"`
	Trips       uint64 `json:"trips"`
	// RetryAfterSec is the remaining cooldown for an open region.
	RetryAfterSec int64 `json:"retry_after_sec,omitempty"`
}

// regionStatuses maps a breaker snapshot onto the /statusz shape.
func regionStatuses(snap []qos.BreakerStatus) []RegionStatus {
	out := make([]RegionStatus, len(snap))
	for i, st := range snap {
		out[i] = RegionStatus{Region: st.Key, State: st.State, Consecutive: st.Consecutive,
			Trips: st.Trips, RetryAfterSec: st.RetryAfterSec}
	}
	return out
}

// StatusSnapshot assembles the live Status.
func (s *Server) StatusSnapshot() Status {
	s.mu.Lock()
	draining, active := s.draining, s.active
	s.mu.Unlock()
	return Status{
		Draining:       draining,
		UptimeSec:      time.Since(s.startMono).Seconds(),
		Workers:        s.cfg.Workers,
		QueueCap:       s.cfg.QueueCap,
		InFlight:       len(s.workerSlots),
		Queued:         len(s.queueSlots),
		ActiveJobs:     active,
		Utilization:    s.utilization(),
		Accepted:       s.metrics.accepted.Value(),
		Completed:      s.metrics.completed.Value(),
		Failed:         s.metrics.failed.Value(),
		Shed:           s.metrics.shed.Value(),
		CacheHits:      s.metrics.cacheHits.Value(),
		Coalesced:      s.metrics.coalesced.Value(),
		Killed:         s.metrics.killed.Value(),
		BreakerRejects: s.metrics.breakerRejects.Value(),
		BreakerTrips:   s.metrics.breakerTransitions.With("open").Value(),
		JournalLen:     s.cache.Len(),
		Breaker:        regionStatuses(s.breaker.Snapshot()),
		QoS:            s.qosStatus(),
		Lease:          s.witness.status(),
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatusSnapshot())
}

// Drain stops admission: new submissions get 503 while accepted jobs
// keep their workers. It is idempotent and returns immediately; pair it
// with WaitIdle (and http.Server.Shutdown, which waits for in-flight
// handlers) for a full graceful stop.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// WaitIdle blocks until every accepted job has finished or ctx expires.
// Combined with Drain it is the serving half of the repository's
// graceful-shutdown contract: stop admitting, finish in-flight work,
// then let the process exit 0.
func (s *Server) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		if active == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain timed out with %d jobs in flight: %w", active, ctx.Err())
		case <-tick.C:
		}
	}
}

// ActiveJobs reports the accepted-but-unfinished job count.
func (s *Server) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}
