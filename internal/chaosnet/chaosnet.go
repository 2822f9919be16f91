// Package chaosnet is a deterministic, seedable network chaos proxy for
// the cluster's HTTP plane. It sits between the coordinator and one
// worker and injects the failures real data-center networks produce —
// added latency, stalls, connection resets, partitions, truncated
// bodies, flipped bytes — plus a Byzantine mode that rewrites shard
// result rows and re-signs them, the one failure the digest layer
// cannot catch (only the coordinator's re-execution audit can).
//
// Determinism contract (same discipline as internal/faults): every fault
// dimension draws from its own stream derived from Config.Seed via a
// splitmix64 scramble, so enabling or tuning one fault does not perturb
// another's sequence, and a serialized request sequence consults
// identical fault decisions across runs. Requests served concurrently
// interleave their draws in scheduling order — per-dimension streams
// keep even that reproducible per dimension count, not per request.
package chaosnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/qos"
)

// ErrConfig marks an invalid proxy configuration.
var ErrConfig = errors.New("chaosnet: invalid config")

// maxBodyBytes bounds any proxied body, matching the cluster wire cap
// with headroom for the integrity envelope.
const maxBodyBytes = 8 << 20

// Config describes one proxy's fault mix. The zero value (plus Target)
// is a transparent pass-through. Probabilities are per request.
type Config struct {
	// Target is the upstream worker base URL (required).
	Target string
	// Seed drives every fault stream; zero derives a fixed default so a
	// zero seed still names one reproducible proxy.
	Seed int64

	// Latency is a fixed delay added to every request, plus a uniform
	// extra draw in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// StallProb stalls a request for Stall before forwarding — the slow
	// worker whose lease expires under it.
	StallProb float64
	Stall     time.Duration
	// ResetProb severs the connection before anything is forwarded (the
	// client sees a reset/EOF, the upstream never hears the request).
	ResetProb float64
	// TruncateProb promises the full Content-Length, writes half the
	// body, then severs — the classic mid-transfer connection loss.
	TruncateProb float64
	// FlipProb flips one bit of the response body. Inside a JSON string
	// this yields a plausible-but-corrupt row the digest layer must
	// catch; on structure it yields a malformed envelope.
	FlipProb float64
	// ByzantineProb rewrites RewriteFraction of the rows in a shard
	// result response and re-signs the envelope, so every checksum
	// verifies and only re-execution on another worker exposes the lie.
	// At least one row is always rewritten on a Byzantine draw.
	ByzantineProb float64
	// RewriteFraction is the fraction of rows a Byzantine rewrite lies
	// about (default 0.05).
	RewriteFraction float64

	// ShedFirst answers the first N requests with 429 and ShedRetryAfter
	// (default 1s) as a fixed Retry-After — the thundering-herd
	// generator: every client in the herd gets the identical hint, so
	// only client-side jitter can decorrelate their retries. The proxy
	// records every arrival (see Arrivals) so tests can measure the
	// spread of the retry wave.
	ShedFirst      int
	ShedRetryAfter time.Duration
	// DripBytes, when positive, writes response bodies DripBytes at a
	// time with a DripInterval pause after each chunk — a slow reader /
	// congested return path that holds the upstream's response open far
	// beyond its service time.
	DripBytes    int
	DripInterval time.Duration

	// Log, when non-nil, receives one line per injected fault.
	Log io.Writer
}

// Stats counts what the proxy actually injected.
type Stats struct {
	Requests    uint64 `json:"requests"`
	Partitioned uint64 `json:"partitioned"`
	Stalled     uint64 `json:"stalled"`
	Reset       uint64 `json:"reset"`
	Truncated   uint64 `json:"truncated"`
	Flipped     uint64 `json:"flipped"`
	Rewritten   uint64 `json:"rewritten"`
	// RowsRewritten counts individual rows lied about across all
	// Byzantine rewrites.
	RowsRewritten uint64 `json:"rows_rewritten"`
	Shed          uint64 `json:"shed"`
	Dripped       uint64 `json:"dripped"`
	Forwarded     uint64 `json:"forwarded"`
	UpstreamError uint64 `json:"upstream_errors"`
}

// Proxy is the chaos intermediary. Create with New, serve its Handler.
type Proxy struct {
	cfg    Config
	target *url.URL
	client *http.Client

	// One locked stream per fault dimension (faults.Plan discipline,
	// made concurrency-safe for the HTTP handler).
	stall, reset, truncate, flip, byz, pick, jitter *stream

	partitioned atomic.Bool
	shedLeft    atomic.Int64

	arrivalMu sync.Mutex
	arrivals  []time.Time

	requests, nPartitioned, stalled, nReset, truncated uint64
	flipped, rewritten, rowsRewritten, forwarded, errs uint64
	nShed, dripped                                     uint64
}

// defaultSeed mirrors faults.defaultSeed so a zero seed is reproducible.
const defaultSeed int64 = 0x62636e70

// New validates cfg and builds a proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("%w: target URL required", ErrConfig)
	}
	target, err := url.Parse(cfg.Target)
	if err != nil || target.Scheme == "" || target.Host == "" {
		return nil, fmt.Errorf("%w: target %q is not an absolute URL", ErrConfig, cfg.Target)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"StallProb", cfg.StallProb}, {"ResetProb", cfg.ResetProb},
		{"TruncateProb", cfg.TruncateProb}, {"FlipProb", cfg.FlipProb},
		{"ByzantineProb", cfg.ByzantineProb}, {"RewriteFraction", cfg.RewriteFraction},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("%w: %s=%v must be in [0, 1]", ErrConfig, p.name, p.v)
		}
	}
	if cfg.Latency < 0 || cfg.Jitter < 0 || cfg.Stall < 0 {
		return nil, fmt.Errorf("%w: durations must be non-negative", ErrConfig)
	}
	if cfg.RewriteFraction == 0 {
		cfg.RewriteFraction = 0.05
	}
	if cfg.ShedFirst < 0 || cfg.DripBytes < 0 || cfg.DripInterval < 0 || cfg.ShedRetryAfter < 0 {
		return nil, fmt.Errorf("%w: shed/drip knobs must be non-negative", ErrConfig)
	}
	if cfg.ShedFirst > 0 && cfg.ShedRetryAfter == 0 {
		cfg.ShedRetryAfter = time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	p := &Proxy{
		cfg: cfg, target: target, client: &http.Client{},
		stall:    newStream(seed, 1),
		reset:    newStream(seed, 2),
		truncate: newStream(seed, 3),
		flip:     newStream(seed, 4),
		byz:      newStream(seed, 5),
		pick:     newStream(seed, 6),
		jitter:   newStream(seed, 7),
	}
	p.shedLeft.Store(int64(cfg.ShedFirst))
	return p, nil
}

// SetPartitioned toggles a network partition: while set, every request
// is severed without reaching the upstream.
func (p *Proxy) SetPartitioned(on bool) { p.partitioned.Store(on) }

// Partitioned reports the current partition state.
func (p *Proxy) Partitioned() bool { return p.partitioned.Load() }

// Stats snapshots the injected-fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:      atomic.LoadUint64(&p.requests),
		Partitioned:   atomic.LoadUint64(&p.nPartitioned),
		Stalled:       atomic.LoadUint64(&p.stalled),
		Reset:         atomic.LoadUint64(&p.nReset),
		Truncated:     atomic.LoadUint64(&p.truncated),
		Flipped:       atomic.LoadUint64(&p.flipped),
		Rewritten:     atomic.LoadUint64(&p.rewritten),
		RowsRewritten: atomic.LoadUint64(&p.rowsRewritten),
		Shed:          atomic.LoadUint64(&p.nShed),
		Dripped:       atomic.LoadUint64(&p.dripped),
		Forwarded:     atomic.LoadUint64(&p.forwarded),
		UpstreamError: atomic.LoadUint64(&p.errs),
	}
}

// Handler returns the proxy's HTTP surface.
func (p *Proxy) Handler() http.Handler { return http.HandlerFunc(p.serve) }

// sever abandons the connection without a response: the client observes
// EOF or a reset, exactly what a yanked cable produces.
func sever() { panic(http.ErrAbortHandler) }

func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	atomic.AddUint64(&p.requests, 1)
	if p.cfg.ShedFirst > 0 {
		p.arrivalMu.Lock()
		p.arrivals = append(p.arrivals, time.Now())
		p.arrivalMu.Unlock()
		if p.shedLeft.Add(-1) >= 0 {
			atomic.AddUint64(&p.nShed, 1)
			p.logf("herd: shedding %s %s with Retry-After %v", r.Method, r.URL.Path, p.cfg.ShedRetryAfter)
			secs := qos.SetRetryAfter(w.Header(), p.cfg.ShedRetryAfter)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"chaosnet herd shed","reason":"shed","retry_after_sec":%d}`, secs)
			return
		}
	}
	if p.partitioned.Load() {
		atomic.AddUint64(&p.nPartitioned, 1)
		p.logf("partitioned: dropping %s %s", r.Method, r.URL.Path)
		sever()
	}
	if d := p.delay(); d > 0 {
		time.Sleep(d)
	}
	if p.cfg.StallProb > 0 && p.stall.Float64() < p.cfg.StallProb {
		atomic.AddUint64(&p.stalled, 1)
		p.logf("stalling %s %s for %v", r.Method, r.URL.Path, p.cfg.Stall)
		time.Sleep(p.cfg.Stall)
	}
	if p.cfg.ResetProb > 0 && p.reset.Float64() < p.cfg.ResetProb {
		atomic.AddUint64(&p.nReset, 1)
		p.logf("resetting %s %s", r.Method, r.URL.Path)
		sever()
	}

	status, header, body, err := p.forward(r)
	if err != nil {
		atomic.AddUint64(&p.errs, 1)
		p.logf("upstream error for %s %s: %v", r.Method, r.URL.Path, err)
		http.Error(w, `{"error":"chaosnet upstream unreachable"}`, http.StatusBadGateway)
		return
	}
	atomic.AddUint64(&p.forwarded, 1)

	if p.isShardResult(r, status, body) && p.cfg.ByzantineProb > 0 && p.byz.Float64() < p.cfg.ByzantineProb {
		if rewritten, n := p.rewriteArtifact(body); n > 0 {
			body = rewritten
			atomic.AddUint64(&p.rewritten, 1)
			atomic.AddUint64(&p.rowsRewritten, uint64(n))
			p.logf("byzantine: rewrote %d rows of %s response", n, r.URL.Path)
		}
	}
	if p.cfg.FlipProb > 0 && len(body) > 0 && p.flip.Float64() < p.cfg.FlipProb {
		i := p.pick.Intn(len(body))
		body = append([]byte(nil), body...)
		body[i] ^= 1 << uint(p.pick.Intn(8))
		atomic.AddUint64(&p.flipped, 1)
		p.logf("flipped one bit of %s response", r.URL.Path)
	}

	for k, vs := range header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if p.cfg.TruncateProb > 0 && len(body) > 1 && p.truncate.Float64() < p.cfg.TruncateProb {
		atomic.AddUint64(&p.truncated, 1)
		p.logf("truncating %s response at %d of %d bytes", r.URL.Path, len(body)/2, len(body))
		_, _ = w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		sever()
	}
	if p.cfg.DripBytes > 0 && len(body) > p.cfg.DripBytes {
		atomic.AddUint64(&p.dripped, 1)
		p.logf("dripping %d bytes of %s response in %d-byte chunks", len(body), r.URL.Path, p.cfg.DripBytes)
		for off := 0; off < len(body); off += p.cfg.DripBytes {
			end := off + p.cfg.DripBytes
			if end > len(body) {
				end = len(body)
			}
			if _, err := w.Write(body[off:end]); err != nil {
				return
			}
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			if p.cfg.DripInterval > 0 && end < len(body) {
				time.Sleep(p.cfg.DripInterval)
			}
		}
		return
	}
	_, _ = w.Write(body)
}

// Arrivals returns the recorded arrival time of every request seen
// while ShedFirst is configured, in order. The retry wave's spread —
// max minus min over the arrivals after the shed phase — is the herd
// decorrelation measurement.
func (p *Proxy) Arrivals() []time.Time {
	p.arrivalMu.Lock()
	defer p.arrivalMu.Unlock()
	return append([]time.Time(nil), p.arrivals...)
}

// delay is the fixed latency plus a jitter draw.
func (p *Proxy) delay() time.Duration {
	d := p.cfg.Latency
	if p.cfg.Jitter > 0 {
		d += time.Duration(p.jitter.Int63n(int64(p.cfg.Jitter)))
	}
	return d
}

// forward performs the upstream request and buffers the full response so
// the corruption stages can operate on complete bodies.
func (p *Proxy) forward(r *http.Request) (int, http.Header, []byte, error) {
	u := *p.target
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range r.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, nil, err
	}
	h := resp.Header.Clone()
	h.Del("Content-Length")
	h.Del("Transfer-Encoding")
	return resp.StatusCode, h, out, nil
}

// isShardResult reports whether a response is a completed shard job
// artifact — the only payload the Byzantine mode rewrites.
func (p *Proxy) isShardResult(r *http.Request, status int, body []byte) bool {
	return r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" &&
		status == http.StatusOK && bytes.Contains(body, []byte(`"shard"`))
}

// rewriteArtifact decodes a shard artifact, lies about a sample of its
// rows (at least one), re-signs the result so every checksum still
// verifies, and re-encodes. Returns the original body and zero when the
// payload is not a rewritable artifact.
func (p *Proxy) rewriteArtifact(body []byte) ([]byte, int) {
	var art map[string]json.RawMessage
	if err := json.Unmarshal(body, &art); err != nil {
		return body, 0
	}
	raw, ok := art["shard"]
	if !ok {
		return body, 0
	}
	var res cluster.ShardResult
	if err := json.Unmarshal(raw, &res); err != nil || len(res.Rows) == 0 {
		return body, 0
	}
	n := 0
	for i := range res.Rows {
		if p.pick.Float64() < p.cfg.RewriteFraction {
			res.Rows[i] = lieAbout(res.Rows[i])
			n++
		}
	}
	if n == 0 {
		// A Byzantine draw always lies about something.
		i := p.pick.Intn(len(res.Rows))
		res.Rows[i] = lieAbout(res.Rows[i])
		n = 1
	}
	// Re-sign: the whole point of the Byzantine mode is rows that pass
	// every digest check and can only be caught by re-execution.
	cluster.SignShardResult(&res)
	reraw, err := json.Marshal(&res)
	if err != nil {
		return body, 0
	}
	art["shard"] = reraw
	out, err := json.Marshal(art)
	if err != nil {
		return body, 0
	}
	return out, n
}

// lieAbout perturbs one row plausibly: a stability verdict is inverted
// when present, otherwise the row text is minimally altered — either way
// the row stays well-formed and correctly checksummed once re-signed.
func lieAbout(r cluster.Row) cluster.Row {
	switch {
	case strings.Contains(r.CSV, "unstable"):
		r.CSV = strings.Replace(r.CSV, "unstable", "stable", 1)
	case strings.Contains(r.CSV, "stable"):
		r.CSV = strings.Replace(r.CSV, "stable", "unstable", 1)
	case r.CSV != "":
		r.CSV += "~"
	default:
		r.CSV = "~"
	}
	r.Violations++
	return r
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Log == nil {
		return
	}
	fmt.Fprintf(p.cfg.Log, "chaosnet: "+format+"\n", args...)
}

// stream is one locked fault-dimension RNG, derived from (seed, id) by
// the same splitmix64 scramble internal/faults uses.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newStream(seed, id int64) *stream {
	z := uint64(seed) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return &stream{rng: rand.New(rand.NewSource(int64(z)))}
}

func (s *stream) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

func (s *stream) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Int63n(n)
}

func (s *stream) Intn(n int) int { return int(s.Int63n(int64(n))) }
