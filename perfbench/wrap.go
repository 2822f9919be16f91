package main

import (
	"io"
	"net/http"
	"strconv"
)

// The wrappers below sit between the benchmark and the program's public
// interfaces. They are installed in traced and untraced runs alike; with
// a nil tracer they only forward.

// opHeader carries the client's operation ID to the server-side
// wrappers of a multi-client workload.
const opHeader = "Perfbench-Op"

// tracedHandler records one span per request whose method and path
// match, named name. It reads the operation ID from opHeader (falling
// back to the tracer's current operation) and the job key the serve
// layer answers with (X-Job-Key), so store spans can be joined to it.
type tracedHandler struct {
	next         http.Handler
	t            *tracer
	name         string
	method, path string
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.t == nil || r.Method != h.method || r.URL.Path != h.path {
		h.next.ServeHTTP(w, r)
		return
	}
	op := h.t.currentOp()
	if v, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
		op = v
	}
	sp := h.t.begin(h.name, op, 0)
	h.next.ServeHTTP(w, r)
	sp.s.Key = w.Header().Get("X-Job-Key")
	sp.end()
}

// store is the contract serve.Cache and the cluster coordinator's
// journal share, with the Len serve's /statusz gauge reads.
type store interface {
	Lookup(key string) ([]byte, bool)
	Record(key string, val []byte) error
	Len() int
}

// tracedStore records a span around every Lookup and Record of the
// store it wraps, named prefix+"_lookup" and prefix+"_record". It
// forwards Len and nothing else, so the program sees the same methods
// it would see on the store itself.
type tracedStore struct {
	s      store
	t      *tracer
	prefix string
}

func (c tracedStore) Lookup(key string) ([]byte, bool) {
	sp := c.t.begin(c.prefix+"_lookup", c.t.currentOp(), 0)
	v, ok := c.s.Lookup(key)
	sp.s.Key = key
	sp.end()
	return v, ok
}

func (c tracedStore) Record(key string, val []byte) error {
	sp := c.t.begin(c.prefix+"_record", c.t.currentOp(), 0)
	err := c.s.Record(key, val)
	sp.s.Key = key
	sp.end()
	return err
}

func (c tracedStore) Len() int { return c.s.Len() }

// tracedTransport records a span for every shard dispatch (POST
// /v1/jobs) the coordinator sends, from the request until the response
// body is closed, with the body's size. Heartbeats pass through.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tt.t == nil || r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
		return tt.base.RoundTrip(r)
	}
	sp := tt.t.begin("cluster.dispatch", tt.t.currentOp(), 0)
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// countingBody ends its dispatch span when the coordinator closes it.
type countingBody struct {
	io.ReadCloser
	sp     open
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.s.Bytes += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.sp.end()
	}
	return err
}
