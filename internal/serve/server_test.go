package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bcnphase/internal/core"
	"bcnphase/internal/faults"
	"bcnphase/internal/invariant"
)

// Chaos markers: the exec hook turns jobs whose MaxArcs carries one of
// these sentinels into injected failures, so tests can poison a job
// without touching the model code.
const (
	markPanic = 777001
	markSlow  = 777002
	markStall = 777003
)

func setExecHook(t *testing.T, fn func(Spec)) {
	t.Helper()
	execHook.Store(&fn)
	t.Cleanup(func() { execHook.Store(nil) })
}

func chaosHook(sp Spec) {
	if sp.Kind != KindSolve || sp.Solve == nil {
		return
	}
	switch sp.Solve.MaxArcs {
	case markPanic:
		panic("chaos: poisoned job")
	case markSlow:
		time.Sleep(200 * time.Millisecond)
	case markStall:
		time.Sleep(50 * time.Millisecond)
	}
}

func installChaosHook(t *testing.T) {
	t.Helper()
	setExecHook(t, chaosHook)
}

// checkGoroutines asserts the test leaks no goroutines: the count must
// return to (near) its starting value once work drains. The tolerance
// absorbs runtime background goroutines; abandoned evaluations get a
// grace window to finish.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			runtime.GC()
			after := runtime.NumGoroutine()
			if after <= before+3 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func marshalSpec(t *testing.T, sp Spec) []byte {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSpec(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.Bytes()
}

func TestSubmitSolveAndCacheHit(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	body := marshalSpec(t, solveSpec())

	resp := postSpec(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first submit X-Cache=%q", got)
	}
	first := readBody(t, resp)
	var art Artifact
	if err := json.Unmarshal(first, &art); err != nil {
		t.Fatalf("artifact not JSON: %v", err)
	}
	// The paper example's buffer is deliberately undersized (Theorem 1
	// asks for ~13.8 Mbit, B is 5 Mbit), so the verdict is overflow —
	// what matters here is that the artifact is fully populated.
	if art.Kind != KindSolve || art.Solve == nil || art.Solve.Outcome == "" || art.Solve.Theorem1Bound <= 0 {
		t.Errorf("unexpected artifact: %+v %+v", art, art.Solve)
	}

	// Resubmission is answered from the store, byte-identically.
	resp2 := postSpec(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("resubmit: status %d cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if second := readBody(t, resp2); !bytes.Equal(first, second) {
		t.Error("cached artifact differs from original bytes")
	}

	// And retrievable by key.
	get, err := http.Get(ts.URL + "/v1/jobs/" + resp.Header.Get("X-Job-Key"))
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Errorf("GET by key: status %d", get.StatusCode)
	}
}

// TestDedupKeyNamesDefaultPolicy: a spec that names no invariant policy
// runs under the server's default, so two servers with different
// defaults sharing one store must not answer each other's artifacts.
// A server whose default is off keys such a spec exactly as Spec.Key
// does.
func TestDedupKeyNamesDefaultPolicy(t *testing.T) {
	cache := NewMemCache()
	_, rec := newTestServer(t, Config{Invariants: invariant.Record, Cache: cache})
	_, off := newTestServer(t, Config{Cache: cache})
	body := marshalSpec(t, solveSpec())
	for _, tc := range []struct {
		url, policy string
	}{{rec.URL, "record"}, {off.URL, "off"}} {
		resp := postSpec(t, tc.url, body)
		raw := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s default: status %d: %s", tc.policy, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s default: X-Cache=%q, want a fresh run", tc.policy, got)
		}
		var art Artifact
		if err := json.Unmarshal(raw, &art); err != nil {
			t.Fatal(err)
		}
		if art.Invariants != tc.policy {
			t.Errorf("%s default: served an artifact computed under %q", tc.policy, art.Invariants)
		}
		if tc.policy == "off" {
			want, err := solveSpec().Key()
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Header.Get("X-Job-Key"); got != want {
				t.Errorf("off default: key %s, Spec.Key %s", got, want)
			}
		}
	}
}

func TestSubmitMalformedNeverPanics(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"empty":     "",
		"garbage":   "{{{",
		"unknown":   `{"kind":"solve","zzz":1}`,
		"bad kind":  `{"kind":"zebra"}`,
		"nan sneak": `{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":1e999,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
	} {
		resp := postSpec(t, ts.URL, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		var eb errorBody
		if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
			t.Errorf("%s: error body not JSON: %v", name, err)
		} else if eb.Reason != "malformed-spec" {
			t.Errorf("%s: reason %q", name, eb.Reason)
		}
	}
}

func TestSubmitOversizedBodyIs413(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	huge := `{"kind":"solve","solve":{"params":{"N":` + strings.Repeat("9", 1<<20) + `}}}`
	resp := postSpec(t, ts.URL, []byte(huge))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if eb.Reason != "body-too-large" {
		t.Errorf("reason %q, want body-too-large", eb.Reason)
	}
}

func TestNetsimJobWithFaults(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	sp := netsimSpec()
	sp.Netsim.Faults = &faults.Config{Seed: 7, FeedbackLoss: 0.3, FeedbackJitterNs: 20_000}
	body := marshalSpec(t, sp)
	resp := postSpec(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var art Artifact
	if err := json.Unmarshal(readBody(t, resp), &art); err != nil {
		t.Fatal(err)
	}
	if art.Netsim == nil || art.Netsim.Events == 0 {
		t.Errorf("empty netsim artifact: %+v", art.Netsim)
	}
}

func TestSweepJob(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, marshalSpec(t, sweepSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var art Artifact
	if err := json.Unmarshal(readBody(t, resp), &art); err != nil {
		t.Fatal(err)
	}
	if art.Sweep == nil || len(art.Sweep.Rows) != 9 || art.Sweep.Failed != 0 {
		t.Errorf("sweep artifact: %+v", art.Sweep)
	}
}

func TestLoadSheddingExplicitFeedback(t *testing.T) {
	checkGoroutines(t)
	// Slow jobs hold their worker until the test releases them, so the
	// saturated state holds however long admission takes on a loaded
	// host.
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	setExecHook(t, func(sp Spec) {
		if sp.Solve != nil && sp.Solve.MaxArcs == markSlow {
			started <- struct{}{}
			<-release
		}
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before the server closes, even on a failure

	// One slow job occupies the worker, one occupies the waiting room;
	// distinct params keep them from coalescing.
	var wg sync.WaitGroup
	launch := func(gi float64) {
		sp := solveSpec()
		sp.Solve.MaxArcs = markSlow
		sp.Solve.Params.Gi = gi
		body := marshalSpec(t, sp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// The second job launches only once the first has started: the
	// exec hook runs after the first gives up its waiting-room slot, so
	// the second cannot find the one slot taken and be shed.
	launch(4.0)
	select {
	case <-started:
	case <-time.After(time.Minute):
		t.Fatal("no slow job started")
	}
	launch(4.5)
	// Wait until the second waits in the queue until the release.
	waitFor(t, time.Minute, func() bool {
		st := statusOf(t, ts.URL)
		return st.InFlight == 1 && st.Queued == 1
	})

	sp := solveSpec()
	sp.Solve.Params.Gi = 5.0
	resp := postSpec(t, ts.URL, marshalSpec(t, sp))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Reason != "shed" || eb.RetryAfterSec < 1 || eb.QueueDepth < 1 || eb.Utilization <= 0 {
		t.Errorf("shed feedback incomplete: %+v", eb)
	}
	// readyz reflects the saturated queue.
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz at shed threshold: status %d", ready.StatusCode)
	}
	unblock()
	wg.Wait()
}

func TestPanicIsolation(t *testing.T) {
	checkGoroutines(t)
	installChaosHook(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	poison := solveSpec()
	poison.Solve.MaxArcs = markPanic
	resp := postSpec(t, ts.URL, marshalSpec(t, poison))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned job: status %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Reason != "panic" {
		t.Errorf("reason %q, want panic", eb.Reason)
	}
	// The pool survives: a healthy job still completes.
	resp2 := postSpec(t, ts.URL, marshalSpec(t, solveSpec()))
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthy job after panic: status %d", resp2.StatusCode)
	}
}

func TestJobDeadline(t *testing.T) {
	checkGoroutines(t)
	installChaosHook(t)
	_, ts := newTestServer(t, Config{})
	sp := solveSpec()
	sp.Solve.MaxArcs = markSlow // 200ms stall
	sp.TimeoutMs = 20
	resp := postSpec(t, ts.URL, marshalSpec(t, sp))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Reason != "deadline" {
		t.Errorf("reason %q", eb.Reason)
	}
}

func TestBreakerQuarantinesRegionOverHTTP(t *testing.T) {
	checkGoroutines(t)
	clk := newFakeClock()
	_, ts := newTestServer(t, Config{Now: clk.now})

	broken := Spec{Kind: KindSolve, Invariants: "strict", Solve: &SolveSpec{Params: func() core.Params {
		p := core.PaperExample()
		p.Gd = -1 // invalid physics: strict policy aborts with a structured violation
		return p
	}()}}
	body := marshalSpec(t, broken)
	for i := 0; i < 3; i++ {
		resp := postSpec(t, ts.URL, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("abort %d: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		var eb errorBody
		if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Reason != "invariant-abort" || eb.Violation == "" {
			t.Errorf("abort %d body: %+v", i, eb)
		}
	}
	// The region is now quarantined: same region, different params.
	sibling := Spec{Kind: KindSolve, Invariants: "strict", Solve: &SolveSpec{Params: func() core.Params {
		p := core.PaperExample()
		p.Gd = -1.01
		return p
	}()}}
	resp := postSpec(t, ts.URL, marshalSpec(t, sibling))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined region: status %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(readBody(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Reason != "breaker-open" || resp.Header.Get("Retry-After") == "" {
		t.Errorf("breaker rejection: %+v retry=%q", eb, resp.Header.Get("Retry-After"))
	}
	// A healthy region is untouched.
	if resp := postSpec(t, ts.URL, marshalSpec(t, solveSpec())); resp.StatusCode != http.StatusOK {
		t.Errorf("healthy region rejected: %d", resp.StatusCode)
	}
	// After the cooldown a working probe closes the region again.
	clk.advance(31 * time.Second)
	fixed := solveSpec()
	fixed.Invariants = "strict"
	if resp := postSpec(t, ts.URL, marshalSpec(t, fixed)); resp.StatusCode != http.StatusOK {
		// fixed is a different region (positive Gd bucket); probe the
		// broken region itself with now-valid params is impossible, so
		// just assert statusz reports the trip.
		t.Logf("probe status %d", resp.StatusCode)
	}
	st := statusOf(t, ts.URL)
	if st.BreakerRejects == 0 || st.Failed < 3 {
		t.Errorf("statusz breaker counters: %+v", st)
	}
}

func TestDrainRefusesNewFinishesInFlight(t *testing.T) {
	checkGoroutines(t)
	installChaosHook(t)
	s, ts := newTestServer(t, Config{Workers: 2})

	slow := solveSpec()
	slow.Solve.MaxArcs = markSlow
	body := marshalSpec(t, slow)
	type result struct {
		status int
		cache  string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		done <- result{resp.StatusCode, resp.Header.Get("X-Cache")}
	}()
	waitFor(t, time.Second, func() bool { return s.ActiveJobs() == 1 })

	s.Drain()
	// New work is refused with explicit feedback...
	resp := postSpec(t, ts.URL, marshalSpec(t, solveSpec()))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain admit: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}
	// ...while the accepted job finishes.
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d", r.status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	if !statusOf(t, ts.URL).Draining {
		t.Error("statusz does not report draining")
	}
}

func TestCoalesceConcurrentDuplicates(t *testing.T) {
	checkGoroutines(t)
	var mu sync.Mutex
	execs := 0
	setExecHook(t, func(sp Spec) {
		mu.Lock()
		execs++
		mu.Unlock()
		chaosHook(sp)
	})
	_, ts := newTestServer(t, Config{Workers: 4})
	sp := solveSpec()
	sp.Solve.MaxArcs = markSlow
	body := marshalSpec(t, sp)

	const dupes = 4
	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, dupes)
	var wg sync.WaitGroup
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), buf.Bytes()}
		}()
	}
	wg.Wait()
	close(replies)
	var bodies [][]byte
	coalesced := 0
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("duplicate submit status %d", r.status)
		}
		if r.cache == "coalesced" {
			coalesced++
		}
		bodies = append(bodies, r.body)
	}
	for _, b := range bodies[1:] {
		if !bytes.Equal(bodies[0], b) {
			t.Error("coalesced duplicates returned different bytes")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Errorf("duplicate spec executed %d times, want 1 (coalesced=%d)", execs, coalesced)
	}
}

func TestHealthEndpoints(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/statusz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
	st := statusOf(t, ts.URL)
	if st.Workers == 0 || st.QueueCap == 0 {
		t.Errorf("statusz zero-valued: %+v", st)
	}
}

func TestGetUnknownArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func statusOf(t *testing.T, base string) Status {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
