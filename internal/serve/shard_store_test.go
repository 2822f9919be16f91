package serve

import (
	"bytes"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcnphase/internal/cluster"
)

// TestShardArtifactNotStored: a worker keeps no copy of a shard artifact.
// Sequential duplicates both evaluate (X-Cache: miss) and return the
// same bytes, the store does not grow and GET of the shard key is 404;
// a copy already in the store is not served; concurrent duplicates still coalesce onto one execution; and a store
// whose Record fails does not fail a shard.
func TestShardArtifactNotStored(t *testing.T) {
	checkGoroutines(t)
	body, err := cluster.EncodeShardJob(goldenShard(), 2700)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sequential", func(t *testing.T) {
		store := NewMemCache()
		_, ts := newTestServer(t, Config{Cache: store})
		if resp := postSpec(t, ts.URL, marshalSpec(t, solveSpec())); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: status %d", resp.StatusCode)
		}
		before := store.Len()
		var bodies [2][]byte
		var key string
		for i := range bodies {
			resp := postSpec(t, ts.URL, body)
			bodies[i] = readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shard %d: status %d: %s", i, resp.StatusCode, bodies[i])
			}
			if got := resp.Header.Get("X-Cache"); got != "miss" {
				t.Errorf("shard %d: X-Cache=%q, want miss", i, got)
			}
			key = resp.Header.Get("X-Job-Key")
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Error("sequential duplicate shards returned different bytes")
		}
		if got := store.Len(); got != before {
			t.Errorf("store Len %d after two shards, want %d", got, before)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET shard key: status %d, want 404", resp.StatusCode)
		}
	})

	// A copy left in the store (by a worker that still kept shards) is
	// never served: the shard evaluates again.
	t.Run("stale-copy", func(t *testing.T) {
		sp, err := DecodeSpec(bytes.NewReader(body), DefaultMaxBodyBytes)
		if err != nil {
			t.Fatal(err)
		}
		key, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		store := NewMemCache()
		store.Record(key, []byte(`{"stale":true}`))
		_, ts := newTestServer(t, Config{Cache: store})
		resp := postSpec(t, ts.URL, body)
		raw := readBody(t, resp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || bytes.Contains(raw, []byte("stale")) {
			t.Errorf("shard with a stored copy: status %d X-Cache=%q body %.40s", resp.StatusCode, resp.Header.Get("X-Cache"), raw)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		var execs atomic.Int32
		started := make(chan struct{}, 2)
		release := make(chan struct{})
		setExecHook(t, func(sp Spec) {
			if sp.Kind == KindShard {
				execs.Add(1)
				started <- struct{}{}
				<-release
			}
		})
		_, ts := newTestServer(t, Config{Workers: 2})
		var once sync.Once
		unblock := func() { once.Do(func() { close(release) }) }
		t.Cleanup(unblock)

		type reply struct {
			status int
			cache  string
			body   []byte
		}
		replies := make(chan reply, 2)
		post := func() {
			go func() {
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
		// The leader is held in execution until its duplicate has
		// joined it, so the two overlap on any host.
		post()
		select {
		case <-started:
		case <-time.After(time.Minute):
			t.Fatal("shard never started")
		}
		post()
		waitFor(t, time.Minute, func() bool { return statusOf(t, ts.URL).Coalesced == 1 })
		unblock()
		a, b := <-replies, <-replies
		if a.status != http.StatusOK || b.status != http.StatusOK {
			t.Fatalf("statuses %d, %d", a.status, b.status)
		}
		if !bytes.Equal(a.body, b.body) {
			t.Error("coalesced shard returned different bytes")
		}
		if n := execs.Load(); n != 1 {
			t.Errorf("concurrent duplicate shard executed %d times, want 1", n)
		}
		if got := a.cache + "," + b.cache; got != "miss,coalesced" && got != "coalesced,miss" {
			t.Errorf("X-Cache %q, %q: want one miss and one coalesced", a.cache, b.cache)
		}
	})

	t.Run("record-fails", func(t *testing.T) {
		store := newFlakyStore()
		store.setFail(errors.New("disk gone"))
		_, ts := newTestServer(t, Config{Cache: store})
		resp := postSpec(t, ts.URL, body)
		if raw := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("shard on failing store: status %d: %s", resp.StatusCode, raw)
		}
		// The same store still fails a stored kind, so the shard's 200 is
		// the bypass, not a store that quietly works.
		if resp := postSpec(t, ts.URL, marshalSpec(t, solveSpec())); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("solve on failing store: status %d, want 500", resp.StatusCode)
		}
	})
}
