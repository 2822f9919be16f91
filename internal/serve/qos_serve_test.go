package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
)

// uniqueSolveSpec returns a solve spec with a distinct content key per i
// (MaxArcs is part of the spec hash), so tests can defeat the idempotent
// cache without building whole parameter sets. The offset keeps the
// values clear of the chaos-marker sentinels.
func uniqueSolveSpec(i int) Spec {
	sp := solveSpec()
	sp.Solve.MaxArcs = 1000 + i
	return sp
}

// postSpecHdr is postSpec with extra request headers.
func postSpecHdr(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestQoSHeaderStamping: every response from a QoS-enabled server
// advertises the admission rate and brownout rung, and /statusz grows a
// qos block; a server without QoS reports neither.
func TestQoSHeaderStamping(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, QoS: &qos.Config{TickInterval: -1}})
	resp := postSpec(t, ts.URL, marshalSpec(t, solveSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	rate, err := strconv.ParseFloat(resp.Header.Get(qos.RateHeader), 64)
	if err != nil || rate <= 0 {
		t.Errorf("%s=%q, want positive float", qos.RateHeader, resp.Header.Get(qos.RateHeader))
	}
	if got := resp.Header.Get(qos.BrownoutHeader); got != "full" {
		t.Errorf("%s=%q, want full", qos.BrownoutHeader, got)
	}
	if resp.Header.Get(qos.StorageDegradedHeader) != "" {
		t.Errorf("healthy server stamped %s", qos.StorageDegradedHeader)
	}
	st := s.StatusSnapshot()
	if st.QoS == nil {
		t.Fatal("StatusSnapshot().QoS is nil with QoS enabled")
	}
	if st.QoS.BrownoutLevel != "full" || st.QoS.AdvertisedRate <= 0 || st.QoS.CapacityEstimate <= 0 {
		t.Errorf("qos status block = %+v", st.QoS)
	}

	plain, _ := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	if plain.StatusSnapshot().QoS != nil {
		t.Error("StatusSnapshot().QoS non-nil without QoS")
	}
}

// TestQoSMalformedHeadersRejected: garbage tenant/class/deadline headers
// are client errors — admission math never runs on unparseable keys.
func TestQoSMalformedHeadersRejected(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, QoS: &qos.Config{TickInterval: -1}})
	body := marshalSpec(t, solveSpec())
	for name, hdr := range map[string]map[string]string{
		"tenant bad byte": {qos.TenantHeader: "no spaces"},
		"tenant overlong": {qos.TenantHeader: strings.Repeat("a", 80)},
		"unknown class":   {qos.ClassHeader: "platinum"},
		"deadline text":   {qos.DeadlineHeader: "soon"},
		"deadline zero":   {qos.DeadlineHeader: "0"},
		"deadline neg":    {qos.DeadlineHeader: "-50"},
	} {
		resp := postSpecHdr(t, ts.URL, body, hdr)
		var eb errorBody
		if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Reason != "malformed-qos-header" {
			t.Errorf("%s: status %d reason %q", name, resp.StatusCode, eb.Reason)
		}
	}
}

// TestQoSDeadlineDoomedSheds: a request whose remaining budget is inside
// the hop margin is answered 504 up front, before it can occupy a queue
// slot or worker.
func TestQoSDeadlineDoomedSheds(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, QoS: &qos.Config{TickInterval: -1}})
	resp := postSpecHdr(t, ts.URL, marshalSpec(t, solveSpec()), map[string]string{qos.DeadlineHeader: "10"})
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Reason != "deadline-doomed" {
		t.Fatalf("status %d reason %q, want 504 deadline-doomed", resp.StatusCode, eb.Reason)
	}
	if got := s.qos.metrics.DeadlineDoom.Value(); got != 1 {
		t.Errorf("qos_deadline_doomed = %d, want 1", got)
	}
}

// TestQoSDeadlineCancelsRunningJob: a propagated deadline caps the
// solver context, so a job that outruns its budget is cancelled
// mid-execution and classified as a deadline failure — not left running
// to be thrown away.
func TestQoSDeadlineCancelsRunningJob(t *testing.T) {
	checkGoroutines(t)
	installChaosHook(t)
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, QoS: &qos.Config{TickInterval: -1}})
	sp := solveSpec()
	sp.Solve.MaxArcs = markSlow // 200ms of work against a 100ms budget
	resp := postSpecHdr(t, ts.URL, marshalSpec(t, sp), map[string]string{qos.DeadlineHeader: "100"})
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Reason != "deadline" {
		t.Fatalf("status %d reason %q, want 504 deadline", resp.StatusCode, eb.Reason)
	}
}

// TestQoSBrownoutLadderGates walks the ladder rung by rung and checks
// what each sheds: NoNewSweeps drops sweeps but runs solves, CachedOnly
// serves hits only, Drain serves nothing — and /readyz flips unready
// from CachedOnly up.
func TestQoSBrownoutLadderGates(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, QoS: &qos.Config{TickInterval: -1}})

	cached := marshalSpec(t, uniqueSolveSpec(1))
	if resp := postSpec(t, ts.URL, cached); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up solve: %d", resp.StatusCode)
	}

	shedReason := func(resp *http.Response) string {
		t.Helper()
		var eb errorBody
		if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
			t.Fatal(err)
		}
		return eb.Reason
	}

	// NoNewSweeps: queue at 80% of capacity.
	if lvl := s.qos.wd.Observe(0.80); lvl != qos.NoNewSweeps {
		t.Fatalf("Observe(0.80) = %v", lvl)
	}
	if resp := postSpec(t, ts.URL, marshalSpec(t, sweepSpec())); resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") == "" || shedReason(resp) != "brownout" {
		t.Errorf("sweep at no-new-sweeps: status %d", resp.StatusCode)
	}
	if resp := postSpec(t, ts.URL, marshalSpec(t, uniqueSolveSpec(2))); resp.StatusCode != http.StatusOK {
		t.Errorf("solve at no-new-sweeps: status %d", resp.StatusCode)
	}

	// CachedOnly: queue essentially full.
	if lvl := s.qos.wd.Observe(0.96); lvl != qos.CachedOnly {
		t.Fatalf("Observe(0.96) = %v", lvl)
	}
	if resp := postSpec(t, ts.URL, marshalSpec(t, uniqueSolveSpec(3))); resp.StatusCode != http.StatusServiceUnavailable ||
		shedReason(resp) != "brownout" {
		t.Errorf("miss at cached-only: status %d", resp.StatusCode)
	}
	if resp := postSpec(t, ts.URL, cached); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("hit at cached-only: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz at cached-only: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Drain: nothing is admitted, not even cache hits.
	s.qos.wd.Pin(qos.Drain, "test: heap beyond serving tolerance")
	if resp := postSpec(t, ts.URL, cached); resp.StatusCode != http.StatusServiceUnavailable ||
		shedReason(resp) != "brownout" {
		t.Errorf("hit at drain: status %d", resp.StatusCode)
	}
	if got := resp0Header(t, ts.URL, cached); got != "drain" {
		t.Errorf("brownout header at drain = %q", got)
	}
}

// resp0Header posts body and returns the brownout rung stamped on the
// response, whatever its status.
func resp0Header(t *testing.T, url string, body []byte) string {
	t.Helper()
	resp := postSpec(t, url, body)
	readBody(t, resp)
	return resp.Header.Get(qos.BrownoutHeader)
}

// TestQoSRateLimitSheds: with a one-token admission bucket the second
// back-to-back miss is shed 429 with pacing feedback.
func TestQoSRateLimitSheds(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, QoS: &qos.Config{
		TickInterval: -1,
		Controller:   qos.ControllerConfig{InitialRate: 1, MaxRate: 1, BurstSeconds: 0.5},
	}})
	if resp := postSpec(t, ts.URL, marshalSpec(t, uniqueSolveSpec(1))); resp.StatusCode != http.StatusOK {
		t.Fatalf("first miss: %d", resp.StatusCode)
	}
	resp := postSpec(t, ts.URL, marshalSpec(t, uniqueSolveSpec(2)))
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || eb.Reason != "rate-limit" {
		t.Fatalf("status %d reason %q, want 429 rate-limit", resp.StatusCode, eb.Reason)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit shed missing Retry-After")
	}
	// A cache hit still answers: replay never spends admission tokens.
	if resp := postSpec(t, ts.URL, marshalSpec(t, uniqueSolveSpec(1))); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("hit under rate limit: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if got := s.qos.metrics.Shed.With("rate-limit").Value(); got != 1 {
		t.Errorf(`qos_shed{reason="rate-limit"} = %d, want 1`, got)
	}
}

// TestQoSTenantLimitSheds: under congestion a tenant that exhausts its
// fair-share bucket is shed 429 tenant-limit while another tenant is
// still admitted — the greedy tenant burns its own share, not the
// shared one.
func TestQoSTenantLimitSheds(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, QoS: &qos.Config{
		TickInterval: -1,
		Controller:   qos.ControllerConfig{InitialRate: 2, MaxRate: 2, BurstSeconds: 10},
	}})
	s.qos.tenants.Congested(true)

	var okA, shedA int
	for i := 0; i < 5; i++ {
		resp := postSpecHdr(t, ts.URL, marshalSpec(t, uniqueSolveSpec(i)), map[string]string{qos.TenantHeader: "greedy"})
		switch resp.StatusCode {
		case http.StatusOK:
			okA++
		case http.StatusTooManyRequests:
			var eb errorBody
			if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
				t.Fatal(err)
			}
			if eb.Reason != "tenant-limit" {
				t.Fatalf("greedy shed reason %q, want tenant-limit", eb.Reason)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("tenant shed missing Retry-After")
			}
			shedA++
		default:
			t.Fatalf("greedy post %d: status %d", i, resp.StatusCode)
		}
	}
	if okA == 0 || shedA == 0 {
		t.Fatalf("greedy tenant: ok=%d shed=%d, want both nonzero", okA, shedA)
	}
	// The other tenant's bucket is untouched.
	resp := postSpecHdr(t, ts.URL, marshalSpec(t, uniqueSolveSpec(100)), map[string]string{qos.TenantHeader: "modest"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("modest tenant shed alongside greedy: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	adm := s.qos.tenants.Admitted()
	if adm["greedy"] == 0 || adm["modest"] == 0 {
		t.Errorf("tenant admit ledger = %v", adm)
	}
}

// flakyStore is a serve.Cache whose Record can be flipped to fail — the
// HTTP-level stand-in for a journal hitting ENOSPC (the journal-level
// shape is covered in internal/runstate's degraded test).
type flakyStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	fail error
}

func newFlakyStore() *flakyStore { return &flakyStore{m: make(map[string][]byte)} }

func (f *flakyStore) setFail(err error) {
	f.mu.Lock()
	f.fail = err
	f.mu.Unlock()
}

func (f *flakyStore) Lookup(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[key]
	return v, ok
}

func (f *flakyStore) Record(key string, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return f.fail
	}
	f.m[key] = append([]byte(nil), val...)
	return nil
}

func (f *flakyStore) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// TestQoSStorageDegradedBrownout: when the durable store starts failing,
// the completed job still answers 200 — marked non-durable — the ladder
// pins at cached-only, new misses shed, and both the pre-failure and the
// volatile post-failure artifacts stay servable.
func TestQoSStorageDegradedBrownout(t *testing.T) {
	checkGoroutines(t)
	store := newFlakyStore()
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Cache: store, QoS: &qos.Config{TickInterval: -1}})

	durable := marshalSpec(t, uniqueSolveSpec(1))
	first := postSpec(t, ts.URL, durable)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("durable solve: %d", first.StatusCode)
	}
	durableBody := readBody(t, first)

	store.setFail(fmt.Errorf("%w: append: no space left on device", runstate.ErrStorageDegraded))

	volatileSpec := marshalSpec(t, uniqueSolveSpec(2))
	resp := postSpecHdr(t, ts.URL, volatileSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job with failing store: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if resp.Header.Get(qos.StorageDegradedHeader) != "1" {
		t.Errorf("missing %s on volatile success", qos.StorageDegradedHeader)
	}
	volatileBody := readBody(t, resp)
	var art Artifact
	if err := json.Unmarshal(volatileBody, &art); err != nil || art.Solve == nil {
		t.Fatalf("volatile artifact: %v %+v", err, art)
	}

	st := s.StatusSnapshot()
	if st.QoS == nil || !st.QoS.StoragePinned || st.QoS.BrownoutLevel != "cached-only" {
		t.Fatalf("qos status after storage failure = %+v", st.QoS)
	}

	// New misses shed; both artifacts — durable and volatile — still serve.
	miss := postSpec(t, ts.URL, marshalSpec(t, uniqueSolveSpec(3)))
	var eb errorBody
	if err := json.Unmarshal(readBody(t, miss), &eb); err != nil {
		t.Fatal(err)
	}
	if miss.StatusCode != http.StatusServiceUnavailable || eb.Reason != "brownout" {
		t.Errorf("miss after pin: status %d reason %q", miss.StatusCode, eb.Reason)
	}
	if resp := postSpec(t, ts.URL, durable); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("durable artifact lost: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if resp := postSpec(t, ts.URL, volatileSpec); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("volatile artifact lost: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	// GET by key reads the same two stores as the POST hit path.
	for name, want := range map[string]struct {
		key  string
		body []byte
	}{
		"durable":  {first.Header.Get("X-Job-Key"), durableBody},
		"volatile": {resp.Header.Get("X-Job-Key"), volatileBody},
	} {
		got, err := http.Get(ts.URL + "/v1/jobs/" + want.key)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, got)
		got.Body.Close()
		if got.StatusCode != http.StatusOK || !bytes.Equal(body, want.body) {
			t.Errorf("GET %s artifact %q: status %d, body equal %v", name, want.key, got.StatusCode, bytes.Equal(body, want.body))
		}
	}
	if got := s.qos.metrics.StorageDegr.Value(); got != 1 {
		t.Errorf("qos_storage_degraded = %d, want 1", got)
	}
	if got := s.qos.metrics.VolatileRecs.Value(); got != 1 {
		t.Errorf("qos_volatile_records = %d, want 1", got)
	}
}

// TestQoSBackgroundTicker: a positive TickInterval runs the control loop
// in the background, and Close stops it without leaking the goroutine
// (checkGoroutines enforces the latter).
func TestQoSBackgroundTicker(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, QoS: &qos.Config{TickInterval: 2 * time.Millisecond}})
	t.Cleanup(s.Close)
	if resp := postSpec(t, ts.URL, marshalSpec(t, solveSpec())); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.qos.metrics.Ticks.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("control loop never ticked: %d", s.qos.metrics.Ticks.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
}
