package serve

import (
	"testing"
	"time"

	"bcnphase/internal/qos"
)

// fakeClock is a manually advanced clock for deterministic breaker
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func newTestBreaker(clk *fakeClock) *qos.Breaker {
	return qos.NewBreaker(3, 30*time.Second, clk.now, nil, nil)
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	const region = "solve:gi=2:gd=-8:n=50"
	for i := 0; i < 2; i++ {
		b.Failure(region)
		if ok, _ := b.Allow(region); !ok {
			t.Fatalf("opened after %d failures, threshold is 3", i+1)
		}
	}
	b.Failure(region)
	ok, retry := b.Allow(region)
	if ok {
		t.Fatal("region still admitting after threshold failures")
	}
	if retry <= 0 || retry > 30*time.Second {
		t.Errorf("retry hint %v outside (0, cooldown]", retry)
	}
	// Other regions are unaffected.
	if ok, _ := b.Allow("netsim:gi=0:gd=0:n=4"); !ok {
		t.Error("unrelated region quarantined")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	const region = "r"
	b.Failure(region)
	b.Failure(region)
	b.Success(region)
	b.Failure(region)
	b.Failure(region)
	if ok, _ := b.Allow(region); !ok {
		t.Error("non-consecutive failures tripped the breaker")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	const region = "r"
	for i := 0; i < 3; i++ {
		b.Failure(region)
	}
	if ok, _ := b.Allow(region); ok {
		t.Fatal("open region admitted")
	}
	clk.advance(31 * time.Second)
	// First caller becomes the probe; the second waits.
	if ok, _ := b.Allow(region); !ok {
		t.Fatal("half-open region refused its probe")
	}
	if ok, retry := b.Allow(region); ok {
		t.Fatal("second caller admitted during probe")
	} else if retry <= 0 {
		t.Error("probe-blocked caller got no retry hint")
	}
	// Probe success closes the region.
	b.Success(region)
	if ok, _ := b.Allow(region); !ok {
		t.Error("closed region refused work")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	const region = "r"
	for i := 0; i < 3; i++ {
		b.Failure(region)
	}
	clk.advance(31 * time.Second)
	if ok, _ := b.Allow(region); !ok {
		t.Fatal("probe refused")
	}
	b.Failure(region) // probe failed → immediate reopen
	if ok, _ := b.Allow(region); ok {
		t.Error("region closed after failed probe")
	}
	snap := regionStatuses(b.Snapshot())
	if len(snap) != 1 || snap[0].Trips < 2 {
		t.Errorf("expected >=2 trips, snapshot %+v", snap)
	}
}

func TestBreakerReleaseKeepsHalfOpen(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	const region = "r"
	for i := 0; i < 3; i++ {
		b.Failure(region)
	}
	clk.advance(31 * time.Second)
	if ok, _ := b.Allow(region); !ok {
		t.Fatal("probe refused")
	}
	// The probe died for unrelated reasons (deadline); the next caller
	// must get to probe again rather than the region closing or jamming.
	b.Release(region)
	if ok, _ := b.Allow(region); !ok {
		t.Error("region jammed after released probe")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := qos.NewBreaker(0, time.Second, nil, nil, nil)
	for i := 0; i < 100; i++ {
		b.Failure("r")
	}
	if ok, _ := b.Allow("r"); !ok {
		t.Error("disabled breaker tripped")
	}
}

func TestBreakerSnapshotStates(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	b.Failure("warm")
	for i := 0; i < 3; i++ {
		b.Failure("open")
	}
	states := map[string]string{}
	for _, st := range regionStatuses(b.Snapshot()) {
		states[st.Region] = st.State
	}
	if states["warm"] != "closed" || states["open"] != "open" {
		t.Errorf("snapshot states %v", states)
	}
	clk.advance(31 * time.Second)
	for _, st := range regionStatuses(b.Snapshot()) {
		if st.Region == "open" && st.State != "half-open" {
			t.Errorf("cooled region state %s", st.State)
		}
	}
}
