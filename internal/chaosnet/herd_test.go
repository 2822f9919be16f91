package chaosnet

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/qos"
)

// TestHerdShedThenJitteredRetriesSpread: the proxy sheds the whole
// first wave with one identical Retry-After hint — the thundering-herd
// setup — and each client paces its retry through an independently
// seeded RetryPacer. The retries must all succeed and must NOT be planned
// as a second synchronized wave: the waits the pacers choose for the one
// hint must spread by at least 50ms. The arrival times at the proxy are
// only a sanity bound, since the scheduler skews them on a loaded host.
func TestHerdShedThenJitteredRetriesSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("herd: skipped with -short (waits out real Retry-After hints)")
	}
	us, upstreamHits := upstream(t)
	const herd = 6
	p, proxyURL := startProxy(t, Config{Target: us.URL, ShedFirst: herd, ShedRetryAfter: time.Second})

	var wg sync.WaitGroup
	failures := make([]error, herd)
	waits := make([]time.Duration, herd) // each client's first planned wait
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pacer := cluster.NewRetryPacer(0, 0, int64(i+1))
			for attempt := 0; attempt < 5; attempt++ {
				resp, err := http.Get(proxyURL + "/blob")
				if err != nil {
					failures[i] = err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					if !bytes.Contains(body, []byte("payload-")) {
						failures[i] = io.ErrUnexpectedEOF
					}
					return
				}
				if !cluster.RetryableStatus(resp.StatusCode) {
					failures[i] = io.ErrUnexpectedEOF
					return
				}
				wait := pacer.Next(qos.RetryAfter(resp.Header))
				if attempt == 0 {
					waits[i] = wait
				}
				time.Sleep(wait)
			}
			failures[i] = io.EOF // attempts exhausted
		}(i)
	}
	wg.Wait()
	for i, err := range failures {
		if err != nil {
			t.Fatalf("herd client %d never got through: %v", i, err)
		}
	}
	if got := p.Stats().Shed; got != herd {
		t.Errorf("shed %d requests, want %d", got, herd)
	}
	if got := upstreamHits.Load(); got < herd {
		t.Errorf("upstream saw %d requests, want >= %d", got, herd)
	}

	// Every client was shed once, on its first attempt, so each planned
	// exactly one retry. Jitter must have spread the plan.
	planned := slices.Max(waits) - slices.Min(waits)
	if planned < 50*time.Millisecond {
		t.Errorf("planned retry waits %v spread %v — the herd would re-collide (want >= 50ms of jitter spread)", waits, planned)
	}

	// The first `herd` arrivals are the synchronized wave; everything
	// after is a paced retry. A client that arrived early in the first
	// wave retries early by as much, so the retry wave may be narrower
	// than the plan by the first wave's own skew, plus scheduling noise.
	arrivals := p.Arrivals()
	if len(arrivals) < 2*herd {
		t.Fatalf("recorded %d arrivals, want >= %d", len(arrivals), 2*herd)
	}
	first, retries := span(arrivals[:herd]), span(arrivals[herd:])
	if retries+first < planned/2 {
		t.Errorf("retry wave spread %v (first wave skew %v) is under half the planned %v", retries, first, planned)
	}
}

// span is the time from the earliest to the latest of ts.
func span(ts []time.Time) time.Duration {
	lo, hi := ts[0], ts[0]
	for _, t := range ts[1:] {
		if t.Before(lo) {
			lo = t
		}
		if t.After(hi) {
			hi = t
		}
	}
	return hi.Sub(lo)
}

// TestDripSlowReaderDeliversIntact: drip mode stretches a response over
// many flushed chunks without corrupting a byte.
func TestDripSlowReaderDeliversIntact(t *testing.T) {
	us, _ := upstream(t)
	p, proxyURL := startProxy(t, Config{Target: us.URL, DripBytes: 256, DripInterval: 2 * time.Millisecond})

	start := time.Now()
	resp, err := http.Get(proxyURL + "/blob")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	want := bytes.Repeat([]byte("payload-"), 512)
	if !bytes.Equal(body, want) {
		t.Fatalf("dripped body corrupted: %d bytes, want %d", len(body), len(want))
	}
	if p.Stats().Dripped != 1 {
		t.Errorf("dripped = %d, want 1", p.Stats().Dripped)
	}
	// 4096 bytes in 256-byte chunks is 15 inter-chunk pauses.
	if elapsed < 15*2*time.Millisecond {
		t.Errorf("drip finished in %v — the pauses did not happen", elapsed)
	}
}
