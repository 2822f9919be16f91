package qos

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestParseDeadline(t *testing.T) {
	cases := []struct {
		in     string
		budget time.Duration
		ok     bool
		err    bool
	}{
		{"", 0, false, false},
		{"250", 250 * time.Millisecond, true, false},
		{"1", time.Millisecond, true, false},
		{"0", 0, false, true},
		{"-5", 0, false, true},
		{"abc", 0, false, true},
		{"10.5", 0, false, true},
		{"99999999999", 0, false, true}, // > 24h
	}
	for _, c := range cases {
		budget, ok, err := ParseDeadline(c.in)
		if budget != c.budget || ok != c.ok || (err != nil) != c.err {
			t.Fatalf("ParseDeadline(%q) = %v, %v, %v", c.in, budget, ok, err)
		}
	}
}

func TestFormatDeadlineRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 3 * time.Second} {
		got, ok, err := ParseDeadline(FormatDeadline(d))
		if err != nil || !ok || got != d {
			t.Fatalf("round trip %v -> %v, %v, %v", d, got, ok, err)
		}
	}
	// Sub-millisecond budgets stay positive on the wire.
	if FormatDeadline(100*time.Microsecond) != "1" {
		t.Fatalf("tiny budget rendered %q", FormatDeadline(100*time.Microsecond))
	}
}

func TestForwardAndDoomed(t *testing.T) {
	if got := Forward(100*time.Millisecond, 25*time.Millisecond); got != 75*time.Millisecond {
		t.Fatalf("Forward = %v", got)
	}
	if !Doomed(20*time.Millisecond, 25*time.Millisecond) {
		t.Fatal("20ms budget with 25ms margin should be doomed")
	}
	if Doomed(100*time.Millisecond, 25*time.Millisecond) {
		t.Fatal("100ms budget should not be doomed")
	}
	// Zero margin falls back to the default.
	if !Doomed(DefaultHopMargin, 0) {
		t.Fatal("budget equal to default margin should be doomed")
	}
}

func TestWithBudgetNeverExtendsParent(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ctx, cancel2 := WithBudget(parent, time.Hour)
	defer cancel2()
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) > time.Second {
		t.Fatalf("budget extended the parent deadline: %v", dl)
	}
}

func TestWithBudgetTightensLooseParent(t *testing.T) {
	ctx, cancel := WithBudget(context.Background(), 50*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) > 60*time.Millisecond {
		t.Fatalf("budget not applied: %v %v", dl, ok)
	}
	if got, ok := Remaining(ctx); !ok || got <= 0 || got > 50*time.Millisecond {
		t.Fatalf("Remaining = %v, %v", got, ok)
	}
	if _, ok := Remaining(context.Background()); ok {
		t.Fatal("Remaining on deadline-free context")
	}
}

func TestSetRetryAfter(t *testing.T) {
	cases := []struct {
		in     time.Duration
		header string
		secs   int64
	}{
		{0, "", 0},
		{-time.Second, "", 0},
		{time.Nanosecond, "1", 1},
		{999 * time.Millisecond, "1", 1},
		{time.Second, "1", 1},
		{1500 * time.Millisecond, "2", 2},
		{60 * time.Second, "60", 60},
		{time.Duration(math.MaxInt64), "9223372037", 9223372037},
	}
	for _, c := range cases {
		h := http.Header{}
		secs := SetRetryAfter(h, c.in)
		if got := h.Get("Retry-After"); got != c.header || secs != c.secs {
			t.Errorf("SetRetryAfter(%v) = header %q, secs %d; want %q, %d", c.in, got, secs, c.header, c.secs)
		}
		// The serving tier's historical encoding, which must not move.
		if c.in > 0 {
			if want := max(int64(math.Ceil(c.in.Seconds())), 1); secs != want {
				t.Errorf("SetRetryAfter(%v) = %d, ceil encoding gives %d", c.in, secs, want)
			}
		}
	}
}

func TestRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"-1", 0},
		{"abc", 0},
		{"Tue, 29 Oct 2024 16:56:32 GMT", 0},
		{"1.5", 0},
		{"0", 0},
		{"3", 3 * time.Second},
		{"99999999999", 0}, // overflows time.Duration
	}
	for _, c := range cases {
		h := http.Header{}
		if c.in != "" {
			h.Set("Retry-After", c.in)
		}
		if got := RetryAfter(h); got != c.want {
			t.Errorf("RetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Round trip: every written hint reads back as its whole seconds.
	for _, d := range []time.Duration{time.Nanosecond, 1500 * time.Millisecond, time.Minute} {
		h := http.Header{}
		secs := SetRetryAfter(h, d)
		if got := RetryAfter(h); got != time.Duration(secs)*time.Second {
			t.Errorf("round trip %v -> %v, wrote %ds", d, got, secs)
		}
	}
}
