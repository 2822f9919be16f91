package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bcnphase/internal/qos"
)

// ServerConfig configures the coordinator's HTTP front end.
type ServerConfig struct {
	// Coordinator executes the sweeps (required).
	Coordinator *Coordinator
	// MaxSweeps bounds concurrently running sweeps; submissions beyond it
	// are shed with 429 + Retry-After (default 2).
	MaxSweeps int
	// Log, when non-nil, receives one line per submission outcome.
	Log io.Writer
	// BaseContext, when non-nil, parents every sweep's context. Sweeps
	// deliberately outlive their submitting connections, so by default
	// they run under context.Background; the HA layer passes its
	// leadership context instead, cancelling every running sweep the
	// moment the replica stops being leader.
	BaseContext context.Context
	// OnSweepAccepted, when non-nil, runs once per admitted sweep
	// before execution starts; an error fails the submission. The HA
	// layer journals the grid here so a successor can resume the sweep.
	OnSweepAccepted func(fp string, grid GainGrid) error
	// OnSweepDone, when non-nil, observes every successfully completed
	// sweep (the HA layer records the sweep-done marker).
	OnSweepDone func(fp string, out *Output)
}

// Server is the coordinator's HTTP layer: POST /v1/sweeps submits a
// gain grid and streams back the merged map.csv; /statusz, /healthz and
// /metrics mirror the worker daemon's operational surface. Identical
// grids submitted concurrently coalesce onto one cluster sweep — the
// fleet computes each fingerprint once no matter how many clients ask.
type Server struct {
	cfg ServerConfig
	sem chan struct{}

	mu       sync.Mutex
	draining bool
	active   map[string]*sweepCall
	wg       sync.WaitGroup
}

// sweepCall is one in-flight sweep that late identical submissions
// attach to.
type sweepCall struct {
	done chan struct{}
	out  *Output
	err  error
}

// NewServer wraps a Coordinator in its HTTP front end.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: server needs a coordinator")
	}
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = 2
	}
	return &Server{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxSweeps),
		active: make(map[string]*sweepCall),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "cluster: "+format+"\n", args...)
}

// Handler returns the coordinator's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.cfg.Coordinator.Registry().Handler())
	return mux
}

// Drain stops admitting sweeps and waits (bounded by ctx) for running
// ones to finish.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain cut short: %w", ctx.Err())
	}
}

// clusterError is the JSON shape of every non-2xx coordinator response
// (same contract as the worker daemon's errorBody).
type clusterError struct {
	Error         string `json:"error"`
	Reason        string `json:"reason"`
	RetryAfterSec int64  `json:"retry_after_sec,omitempty"`
}

func (s *Server) reject(w http.ResponseWriter, status int, retryAfter time.Duration, body clusterError) {
	body.RetryAfterSec = qos.SetRetryAfter(w.Header(), retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	c := s.cfg.Coordinator
	// QoS wire protocol: the tenant key rides into dispatch (workers bill
	// shards to it) and the deadline budget, decremented by one hop
	// margin, bounds the whole sweep. A budget that cannot cover even the
	// hop is answered now, before any shard is cut.
	tenant, terr := qos.ParseTenant(r.Header.Get(qos.TenantHeader))
	if terr != nil {
		s.reject(w, http.StatusBadRequest, 0, clusterError{
			Error: fmt.Sprintf("%s: %v", qos.TenantHeader, terr), Reason: "malformed-qos-header"})
		return
	}
	budget, hasDeadline, derr := qos.ParseDeadline(r.Header.Get(qos.DeadlineHeader))
	if derr != nil {
		s.reject(w, http.StatusBadRequest, 0, clusterError{
			Error: fmt.Sprintf("%s: %v", qos.DeadlineHeader, derr), Reason: "malformed-qos-header"})
		return
	}
	if hasDeadline && qos.Doomed(budget) {
		s.reject(w, http.StatusGatewayTimeout, 0, clusterError{
			Error: "deadline budget cannot cover the sweep", Reason: "deadline-doomed"})
		return
	}
	grid, err := DecodeSweepRequest(http.MaxBytesReader(w, r.Body, MaxWireBytes), MaxWireBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, http.StatusRequestEntityTooLarge, 0, clusterError{
				Error:  fmt.Sprintf("request body exceeds %d bytes", int64(MaxWireBytes)),
				Reason: "body-too-large"})
			return
		}
		s.reject(w, http.StatusBadRequest, 0, clusterError{Error: err.Error(), Reason: "malformed-grid"})
		return
	}
	fp, err := grid.Fingerprint()
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, clusterError{Error: err.Error(), Reason: "malformed-grid"})
		return
	}

	call, rej := s.begin(fp, grid, tenant, budget, hasDeadline)
	if rej != nil {
		if rej.body.Reason == "shed" {
			c.m.SweepsShed.Inc()
		}
		s.reject(w, rej.status, rej.retryAfter, rej.body)
		return
	}
	s.respond(w, r, fp, call)
}

// beginReject is a refused admission: the HTTP verdict begin would
// have handleSweep write.
type beginReject struct {
	status     int
	retryAfter time.Duration
	body       clusterError
}

// begin admits one sweep (or coalesces onto the identical one already
// running) through every path into the coordinator — HTTP submissions
// and HA takeover resumption alike share its draining check,
// concurrency bound, coalescing map and bookkeeping hooks.
func (s *Server) begin(fp string, grid GainGrid, tenant string, budget time.Duration, hasDeadline bool) (*sweepCall, *beginReject) {
	c := s.cfg.Coordinator
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &beginReject{http.StatusServiceUnavailable, time.Second, clusterError{
			Error: "coordinator is draining", Reason: "draining"}}
	}
	if call, ok := s.active[fp]; ok {
		// Identical grid already running: ride along instead of paying
		// for a second sweep (the journal would dedup it anyway, but
		// coalescing avoids even the dispatch round-trips).
		s.mu.Unlock()
		s.logf("sweep %0.12s coalesced onto running submission", fp)
		return call, nil
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.mu.Unlock()
		return nil, &beginReject{http.StatusTooManyRequests, 2 * time.Second, clusterError{
			Error:  fmt.Sprintf("coordinator at its limit of %d concurrent sweeps", s.cfg.MaxSweeps),
			Reason: "shed"}}
	}
	call := &sweepCall{done: make(chan struct{})}
	s.active[fp] = call
	s.wg.Add(1)
	s.mu.Unlock()

	c.m.Sweeps.Inc()
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.active, fp)
			s.mu.Unlock()
			<-s.sem
			s.wg.Done()
			close(call.done)
		}()
		// Bookkeeping before the first shard is cut: a crash after this
		// point leaves a journaled grid a successor can resume.
		if s.cfg.OnSweepAccepted != nil {
			if err := s.cfg.OnSweepAccepted(fp, grid); err != nil {
				call.err = fmt.Errorf("cluster: sweep bookkeeping: %w", err)
				return
			}
		}
		base := s.cfg.BaseContext
		if base == nil {
			base = context.Background()
		}
		ctx := qos.WithTenant(base, tenant)
		if hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = qos.WithBudget(ctx, qos.Forward(budget))
			defer cancel()
		}
		// The sweep deliberately outlives the submitting connection: a
		// client that gives up does not strand a half-journaled grid, and
		// a resubmission replays the finished work from the journal.
		call.out, call.err = c.Run(ctx, grid)
		if call.err == nil && s.cfg.OnSweepDone != nil {
			s.cfg.OnSweepDone(fp, call.out)
		}
	}()
	return call, nil
}

// ErrSweepsBusy is Submit's refusal when the concurrent-sweep bound or
// a drain blocks admission; callers retry later.
var ErrSweepsBusy = errors.New("cluster: coordinator cannot admit the sweep now")

// Submit runs (or joins) a sweep through the same coalescing and
// bookkeeping path as POST /v1/sweeps. The HA layer resumes journaled
// sweeps with it after a leadership takeover, so a client resubmitting
// the same grid coalesces onto the resumed run instead of racing it.
func (s *Server) Submit(ctx context.Context, grid GainGrid) (*Output, error) {
	fp, err := grid.Fingerprint()
	if err != nil {
		return nil, err
	}
	call, rej := s.begin(fp, grid, "", 0, false)
	if rej != nil {
		return nil, fmt.Errorf("%w: %s", ErrSweepsBusy, rej.body.Error)
	}
	select {
	case <-call.done:
		return call.out, call.err
	case <-ctx.Done():
		// The sweep keeps running, exactly as it would for a hung-up
		// HTTP client; only this waiter gives up.
		return nil, ctx.Err()
	}
}

// respond waits for the sweep (or the client hanging up) and writes the
// merged CSV.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, fp string, call *sweepCall) {
	select {
	case <-call.done:
	case <-r.Context().Done():
		// The sweep keeps running; tell the client how to pick it up.
		s.reject(w, http.StatusRequestTimeout, 0, clusterError{
			Error:  "client went away; sweep continues — resubmit the same grid to collect it",
			Reason: "client-timeout"})
		return
	}
	if call.err != nil {
		s.logf("sweep %0.12s failed: %v", fp, call.err)
		s.reject(w, http.StatusInternalServerError, 0, clusterError{Error: call.err.Error(), Reason: "sweep-failed"})
		return
	}
	out := call.out
	h := w.Header()
	h.Set("Content-Type", "text/csv; charset=utf-8")
	h.Set("Bcn-Fingerprint", out.Fingerprint)
	h.Set("Bcn-Points", strconv.Itoa(out.Points))
	h.Set("Bcn-Fresh", strconv.Itoa(out.Fresh))
	h.Set("Bcn-Replayed", strconv.Itoa(out.Replayed))
	h.Set("Bcn-Orphan-Shards", strconv.Itoa(out.OrphanShards))
	h.Set("Bcn-Audited-Shards", strconv.Itoa(out.AuditedShards))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.CSV)
}

// CoordinatorStatus is the /statusz document.
type CoordinatorStatus struct {
	Draining     bool                  `json:"draining"`
	ActiveSweeps int                   `json:"active_sweeps"`
	MaxSweeps    int                   `json:"max_sweeps"`
	Workers      []WorkerHealth        `json:"workers"`
	Breakers     []WorkerBreakerStatus `json:"breakers"`
}

// Status snapshots the coordinator for /statusz.
func (s *Server) Status() CoordinatorStatus {
	s.mu.Lock()
	st := CoordinatorStatus{
		Draining:     s.draining,
		ActiveSweeps: len(s.active),
		MaxSweeps:    s.cfg.MaxSweeps,
	}
	s.mu.Unlock()
	st.Workers = s.cfg.Coordinator.WorkerSnapshot()
	st.Breakers = s.cfg.Coordinator.BreakerSnapshot()
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(s.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.reject(w, http.StatusServiceUnavailable, time.Second, clusterError{
			Error: "draining", Reason: "draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}
