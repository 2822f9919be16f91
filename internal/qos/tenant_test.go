package qos

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseTenant(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", AnonTenant, false},
		{"acme", "acme", false},
		{"team-7.prod_x", "team-7.prod_x", false},
		{strings.Repeat("a", 64), strings.Repeat("a", 64), false},
		{strings.Repeat("a", 65), "", true},
		{"bad tenant", "", true},
		{"héllo", "", true},
		{"semi;colon", "", true},
	}
	for _, c := range cases {
		got, err := ParseTenant(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("ParseTenant(%q) = %q, %v; want %q, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range []struct {
		in     string
		name   string
		weight float64
		err    bool
	}{
		{"", ClassStandard, 1, false},
		{"standard", ClassStandard, 1, false},
		{"interactive", ClassInteractive, 4, false},
		{"batch", ClassBatch, 0.25, false},
		{"gold", "", 0, true},
	} {
		name, w, err := ParseClass(c.in)
		if (err != nil) != c.err || name != c.name || w != c.weight {
			t.Fatalf("ParseClass(%q) = %q, %v, %v", c.in, name, w, err)
		}
	}
}

func TestTenantLimiterWorkConserving(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{Now: clk.now})
	// Uncongested: everything flows regardless of rate.
	for i := 0; i < 100; i++ {
		if !tl.Allow("greedy", 1, 0.001) {
			t.Fatal("uncongested limiter shed")
		}
	}
}

func TestTenantLimiterEnforcesFairShareUnderCongestion(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{BurstSeconds: 1, Headroom: 1, Now: clk.now})
	// Register both tenants, then congest.
	tl.Allow("a", 1, 100)
	tl.Allow("b", 1, 100)
	tl.Congested(true)

	// Advertised rate 100/s, two equal tenants -> 50/s each. Over one
	// second in 10ms steps, each tenant offers 5x its share.
	admits := map[string]int{}
	for i := 0; i < 100; i++ {
		clk.advance(10 * time.Millisecond)
		for j := 0; j < 5; j++ {
			for _, tn := range []string{"a", "b"} {
				if tl.Allow(tn, 1, 100) {
					admits[tn]++
				}
			}
		}
	}
	for _, tn := range []string{"a", "b"} {
		// Each bucket refills at ~50/s; allow bucket-seed slack.
		if admits[tn] < 35 || admits[tn] > 70 {
			t.Fatalf("tenant %s admitted %d in 1s at a 50/s share", tn, admits[tn])
		}
	}
}

// TestTenantLimiterInfiniteWeightCannotStarve: a non-finite configured
// weight is ignored like a non-positive one. An infinite weight would
// make every other tenant's share rate·1/Inf = 0 under congestion and
// its own bucket NaN, which never sheds.
func TestTenantLimiterInfiniteWeightCannotStarve(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{
		Weights:      map[string]float64{"inf": math.Inf(1)},
		BurstSeconds: 1,
		Headroom:     1,
		Now:          clk.now,
	})
	tl.Allow("inf", 1, 100)
	tl.Allow("plain", 1, 100)
	tl.Congested(true)
	admits := map[string]int{}
	for i := 0; i < 100; i++ {
		clk.advance(10 * time.Millisecond)
		for j := 0; j < 5; j++ {
			for _, tn := range []string{"inf", "plain"} {
				if tl.Allow(tn, 1, 100) {
					admits[tn]++
				}
			}
		}
	}
	for _, tn := range []string{"inf", "plain"} {
		// Both fall back to weight 1: ~50/s each, as in the fair-share test.
		if admits[tn] < 35 || admits[tn] > 70 {
			t.Fatalf("tenant %s admitted %d in 1s at a 50/s share (admits %v)", tn, admits[tn], admits)
		}
	}
}

func TestTenantLimiterWeightsSkewShares(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{
		Weights:      map[string]float64{"vip": 3},
		BurstSeconds: 1,
		Headroom:     1,
		Now:          clk.now,
	})
	tl.Allow("vip", 1, 100)
	tl.Allow("pleb", 1, 100)
	tl.Congested(true)
	admits := map[string]int{}
	for i := 0; i < 200; i++ {
		clk.advance(10 * time.Millisecond)
		for j := 0; j < 10; j++ {
			for _, tn := range []string{"vip", "pleb"} {
				if tl.Allow(tn, 1, 100) {
					admits[tn]++
				}
			}
		}
	}
	ratio := float64(admits["vip"]) / float64(admits["pleb"])
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("weight 3 tenant got %.2fx the weight 1 tenant (vip=%d pleb=%d)", ratio, admits["vip"], admits["pleb"])
	}
}

func TestTenantLimiterRetryAfterBounds(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{Now: clk.now})
	if d := tl.RetryAfter("ghost", 100); d != time.Second {
		t.Fatalf("unknown tenant RetryAfter = %v", d)
	}
	tl.Allow("a", 1, 100)
	if d := tl.RetryAfter("a", 100); d < time.Second || d > time.Minute {
		t.Fatalf("RetryAfter out of bounds: %v", d)
	}
	if d := tl.RetryAfter("a", 0); d != time.Minute {
		t.Fatalf("zero-rate RetryAfter = %v, want cap", d)
	}
}

func TestTenantLimiterCapsTrackedTenants(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{MaxTenants: 4, Now: clk.now})
	for i := 0; i < 100; i++ {
		tl.Allow(string(rune('a'+i%26))+strings.Repeat("x", i/26+1), 1, 100)
	}
	if n := tl.Tenants(); n > 5 { // 4 + possibly anon overflow bucket
		t.Fatalf("tracked %d tenants past the cap", n)
	}
}

func TestTenantLimiterIdleExpiry(t *testing.T) {
	clk := newFakeClock()
	tl := NewTenantLimiter(TenantConfig{MaxTenants: 2, IdleExpiry: time.Minute, Now: clk.now})
	tl.Allow("old1", 1, 100)
	tl.Allow("old2", 1, 100)
	clk.advance(2 * time.Minute)
	// At capacity, the idle tenants are expired to make room.
	tl.Allow("new", 1, 100)
	admitted := tl.Admitted()
	if _, ok := admitted["new"]; !ok {
		t.Fatalf("new tenant not tracked after expiry GC: %v", admitted)
	}
}

func TestTenantContextRoundTrip(t *testing.T) {
	ctx := WithTenant(context.Background(), "acme")
	if got := TenantFromContext(ctx); got != "acme" {
		t.Fatalf("TenantFromContext = %q", got)
	}
	if got := TenantFromContext(context.Background()); got != "" {
		t.Fatalf("empty context yielded %q", got)
	}
	if ctx2 := WithTenant(context.Background(), ""); TenantFromContext(ctx2) != "" {
		t.Fatal("empty tenant should not be stored")
	}
}
