package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/serve"
)

// loopback is one HTTP server on 127.0.0.1, serving until stop.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return lb, nil
}

func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lb.srv.Shutdown(ctx); err != nil {
		lb.srv.Close()
	}
	<-lb.done
}

// newClient returns a keep-alive HTTP client holding at most conns
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// post sends body and returns the response body of a 200 answer.
func post(ctx context.Context, c *http.Client, url string, body []byte, op int) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, resp.Header, nil
}

// serveJobs is two closed-loop clients posting solve jobs to one
// serve.Server with its in-memory cache, as bcnd without -journal. (With
// an on-disk journal the per-append fsync sets the pace, and fsync
// latency on a shared virtual disk swings too much from minute to minute
// for a steady figure; the traced run measures the journal on the same
// artifacts instead.)
type serveJobs struct {
	seed   int64
	t      *tracer
	dir    string
	cache  *serve.MemCache
	srv    *serve.Server
	lb     *loopback
	client *http.Client
	url    string

	mu sync.Mutex
	// answers keeps each operation's job key and response digest, not
	// the response: the cache holds the artifact, so the benchmark's
	// memory does not grow with the server's throughput.
	answers map[int]answer

	hits0, accepted0, coalesced0 float64
	a0                           analyticCounts // after warm-up
}

// served is a 200 response; answer is what keep retains of it.
type served struct {
	raw []byte
	key string
}

type answer struct {
	key string
	sum [sha256.Size]byte
}

func setupServeJobs(e env) (fixture, error) {
	cache := serve.NewMemCache()
	srv, err := serve.New(serve.Config{Cache: tracedStore{s: cache, t: e.t, prefix: "serve.cache"}})
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(tracedHandler{next: srv.Handler(), t: e.t, name: "serve.handler", method: http.MethodPost, path: "/v1/jobs"})
	if err != nil {
		return nil, err
	}
	s := &serveJobs{
		seed: e.seed, t: e.t, dir: e.dir, cache: cache, srv: srv, lb: lb,
		client: newClient(2), url: lb.url + "/v1/jobs",
		answers: make(map[int]answer),
	}
	// Warm-up: a few jobs of both engines from a stream the run never
	// submits.
	for k := 0; k < 64; k++ {
		body, err := json.Marshal(genSpec(e.seed, streamWarmup, k, jobDefault+k%2))
		if err != nil {
			s.close()
			return nil, err
		}
		if _, _, err := post(context.Background(), s.client, s.url, body, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	s.hits0, s.accepted0, s.coalesced0 = s.counters()
	s.a0 = readAnalytic(srv.Registry())
	return s, nil
}

func (s *serveJobs) counters() (hits, accepted, coalesced float64) {
	snap := s.srv.Registry().Snapshot()
	return snap.Value("serve_cache_hits_total"), snap.Value("serve_accepted_total"), snap.Value("serve_coalesced_total")
}

func (s *serveJobs) input(i int) (any, error) {
	body, err := json.Marshal(jobSpec(s.seed, i))
	if err != nil {
		return nil, fmt.Errorf("encode job %d: %w", i, err)
	}
	return body, nil
}

func (s *serveJobs) op(ctx context.Context, i int, in any) (any, error) {
	sp := s.t.begin("client.job", int64(i), 0)
	raw, h, err := post(ctx, s.client, s.url, in.([]byte), i)
	sp.end()
	if err != nil {
		return nil, err
	}
	return served{raw: raw, key: h.Get("X-Job-Key")}, nil
}

func (s *serveJobs) keep(i int, _, out any) {
	r := out.(served)
	a := answer{key: r.key, sum: sha256.Sum256(r.raw)}
	s.mu.Lock()
	s.answers[i] = a
	s.mu.Unlock()
}

// check compares every fresh answer with a direct solve of the same
// parameters, and every resubmit with the first answer, byte for byte.
// A fresh answer's bytes are read back from the cache, after checking
// that they are the bytes served.
func (s *serveJobs) check() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wrong := 0
	var first error
	fail := func(err error) {
		wrong++
		if first == nil {
			first = err
		}
	}
	resubmits := 0
	for i, a := range s.answers {
		if o := jobOrigin(s.seed, i); o != i {
			resubmits++
			if orig, ok := s.answers[o]; ok && orig.sum != a.sum {
				fail(fmt.Errorf("job %d: resubmit of job %d answered different bytes", i, o))
			}
			continue
		}
		raw, ok := s.cache.Lookup(a.key)
		if !ok || sha256.Sum256(raw) != a.sum {
			fail(fmt.Errorf("job %d: served bytes are not the cached artifact %s", i, a.key))
			continue
		}
		if err := checkSolveArtifact(raw, jobSpec(s.seed, i)); err != nil {
			fail(fmt.Errorf("job %d: %w", i, err))
		}
	}
	// Every resubmit is answered from the cache, coalesced onto its
	// in-flight original, or, when it misses the cache just before the
	// original is recorded and registers just after the original left
	// the in-flight table, executed again. The bytes are checked above
	// either way; re-executions are wasted work, not wrong answers, so
	// they are counted, not failed. More hits than resubmits would mean
	// a fresh job was answered from the cache.
	hits, _, coalesced := s.counters()
	answered := int(hits - s.hits0 + coalesced - s.coalesced0)
	switch {
	case answered > resubmits:
		fail(fmt.Errorf("%d cache hits or coalesced answers for %d resubmits", answered, resubmits))
	case answered < resubmits:
		fmt.Fprintf(os.Stderr, "perfbench: serve-jobs: %d of %d resubmits raced their original and ran again\n",
			resubmits-answered, resubmits)
	}
	return wrong, first
}

// checkSolveArtifact compares a served solve artifact with a direct
// analytic.SolveOne (default engine) or core.Solve (record policy) on
// the spec's parameters.
func checkSolveArtifact(raw []byte, sp serve.Spec) error {
	var art serve.Artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		return fmt.Errorf("decode artifact: %w", err)
	}
	if art.Solve == nil {
		return errors.New("artifact has no solve result")
	}
	got := art.Solve
	p := sp.Solve.Params
	var want serve.SolveResult
	if sp.Invariants == "record" {
		tr, err := core.Solve(p, core.SolveOptions{Invariants: invariant.NewPolicy(invariant.Record)})
		if err != nil {
			return err
		}
		want = serve.SolveResult{Outcome: tr.Outcome.String(), Rho: tr.Rho, Crossings: len(tr.Crossings),
			MaxQueueBits: tr.MaxQueue(), Violations: tr.Violations.Total}
	} else {
		res, err := analytic.SolveOne(p, analytic.Options{})
		if err != nil {
			return err
		}
		want = serve.SolveResult{Outcome: res.Outcome.String(), Rho: res.Rho, Crossings: res.Crossings,
			MaxQueueBits: res.MaxQueue(p), Engine: res.Path.String()}
	}
	if got.Outcome != want.Outcome || got.Rho != want.Rho || got.Crossings != want.Crossings ||
		got.MaxQueueBits != want.MaxQueueBits || got.Engine != want.Engine || got.Violations != want.Violations {
		return fmt.Errorf("served %s rho=%v crossings=%d max_q=%v engine=%q violations=%d, direct solve %s rho=%v crossings=%d max_q=%v engine=%q violations=%d",
			got.Outcome, got.Rho, got.Crossings, got.MaxQueueBits, got.Engine, got.Violations,
			want.Outcome, want.Rho, want.Crossings, want.MaxQueueBits, want.Engine, want.Violations)
	}
	return nil
}

func (s *serveJobs) layers(l *layerSet, p *pass) error {
	// Two clients run at once, so the journal wrapper cannot know its
	// operation; the handler span that served the same key does.
	s.t.joinByKey("serve.cache_record", "serve.handler")
	s.t.joinByKey("serve.cache_lookup", "serve.handler")
	s.t.adopt("client.job")
	handlers := s.t.named("serve.handler")
	l.set("serve.handler_us_p50", spanQuantile(handlers, 0.5, time.Microsecond), len(handlers))
	l.set("serve.handler_us_p99", spanQuantile(handlers, 0.99, time.Microsecond), len(handlers))

	clients := s.t.named("client.job")
	byOp := make(map[int64]span, len(handlers))
	for _, h := range handlers {
		byOp[h.Op] = h
	}
	var transport []float64
	for _, c := range clients {
		if h, ok := byOp[c.Op]; ok {
			transport = append(transport, float64(c.dur()-h.dur())/1e3)
		}
	}
	l.set("serve.transport_us_p50", median(transport), len(transport))

	records := s.t.named("serve.cache_record")
	l.set("runstate.records_per_job", ratio(float64(len(records)), float64(p.attempted)), p.attempted)
	rec, look, err := probeJournal(s.dir, recordKeys(records), s.cache)
	if err != nil {
		return err
	}
	rec, look = sortedCopy(rec), sortedCopy(look)
	l.set("runstate.record_us_p50", quantile(rec, 0.5), len(rec))
	l.set("runstate.record_us_p99", quantile(rec, 0.99), len(rec))
	l.set("runstate.lookup_us_p50", quantile(look, 0.5), len(look))

	hits, accepted, _ := s.counters()
	hits -= s.hits0
	accepted -= s.accepted0
	l.set("serve.cache_hit_ratio", ratio(hits, hits+accepted), int(hits+accepted))
	// Process-wide: the clients' allocations are counted with the server's.
	l.set("serve.allocs_per_job", ratio(float64(p.allocs), float64(p.attempted)), p.attempted)

	readAnalytic(s.srv.Registry()).since(s.a0).report(l)

	// Probes on this run's own inputs.
	var defParams, recParams []core.Params
	var bodies [][]byte
	for i := 0; i < 2000; i++ {
		sp := jobSpec(s.seed, i)
		switch jobKind(s.seed, i) {
		case jobDefault:
			defParams = append(defParams, sp.Solve.Params)
		case jobRecord:
			recParams = append(recParams, sp.Solve.Params)
		}
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	if err := probeBatch(l, defParams); err != nil {
		return err
	}
	if err := probeSolveOne(l, defParams); err != nil {
		return err
	}
	if err := probeCoreSolve(l, recParams[:min(len(recParams), 200)]); err != nil {
		return err
	}
	return probeDecodeKey(l, bodies)
}

func (s *serveJobs) close() {
	s.client.CloseIdleConnections()
	s.lb.stop()
	s.srv.Drain()
}
