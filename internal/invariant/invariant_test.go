package invariant

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"off", Off, true},
		{"none", Off, true},
		{"", Off, true},
		{"record", Record, true},
		{"Strict", Strict, true},
		{" clamp ", Clamp, true},
		{"bogus", Off, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParsePolicy(%q) err=%v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Off: "off", Record: "record", Strict: "strict", Clamp: "clamp", Policy(42): "Policy(42)",
	} {
		if got := p.String(); got != want {
			t.Fatalf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Policy: Record}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{Policy: Policy(99)}).Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("unknown policy: got %v, want ErrConfig", err)
	}
	if err := (Config{Policy: Record, MaxSamples: -1}).Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative MaxSamples: got %v, want ErrConfig", err)
	}
}

func TestNilCheckerIsInert(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	if err := c.Fail("x", 0, "d"); err != nil {
		t.Fatalf("nil Fail: %v", err)
	}
	if err := c.Finite2(0, math.NaN(), 0); err != nil {
		t.Fatalf("nil Finite2: %v", err)
	}
	if v, err := c.Range("q", 0, -5, 0, 1, 0); err != nil || v != -5 {
		t.Fatalf("nil Range: v=%v err=%v", v, err)
	}
	if err := c.MonotoneTime(-1); err != nil {
		t.Fatalf("nil MonotoneTime: %v", err)
	}
	if s := c.Stats(); s.Total != 0 {
		t.Fatalf("nil Stats: %+v", s)
	}
	if c.Violations() != 0 {
		t.Fatal("nil accessor values wrong")
	}
}

func TestNewPolicyOffIsNil(t *testing.T) {
	if NewPolicy(Off) != nil {
		t.Fatal("NewPolicy(Off) should return nil")
	}
	if c := NewPolicy(Record); c == nil || !c.Enabled() {
		t.Fatal("NewPolicy(Record) should be enabled")
	}
}

func TestStrictAbortsWithStructuredError(t *testing.T) {
	c := NewPolicy(Strict)
	err := c.Failf("queue-bounds", 1.25, "q=%g above B=%g", 10.0, 5.0)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InvariantError, got %T %v", err, err)
	}
	if ie.Violation.Predicate != "queue-bounds" || ie.Violation.T != 1.25 {
		t.Fatalf("violation = %+v", ie.Violation)
	}
	if !strings.Contains(ie.Error(), "queue-bounds") || !strings.Contains(ie.Error(), "1.25") {
		t.Fatalf("error text %q lacks predicate or time", ie.Error())
	}
}

func TestRecordCountsAndRetainsFirstN(t *testing.T) {
	c, err := New(Config{Policy: Record, MaxSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Fail("finite", float64(i), "boom"); err != nil {
			t.Fatalf("Record policy returned error: %v", err)
		}
	}
	if err := c.Fail("rate-bounds", 10, "boom"); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Total != 11 || s.ByPredicate["finite"] != 10 || s.ByPredicate["rate-bounds"] != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.First) != 3 || s.First[0].T != 0 {
		t.Fatalf("First = %+v", s.First)
	}
	if s.FirstPredicate() != "finite" {
		t.Fatalf("FirstPredicate = %q", s.FirstPredicate())
	}
}

func TestClampProjectsIntoFeasibleSet(t *testing.T) {
	c := NewPolicy(Clamp)
	v, err := c.Range("queue-bounds", 0.5, 12, 0, 10, 0)
	if err != nil || v != 10 {
		t.Fatalf("clamp high: v=%v err=%v", v, err)
	}
	v, err = c.Range("queue-bounds", 0.6, -3, 0, 10, 0)
	if err != nil || v != 0 {
		t.Fatalf("clamp low: v=%v err=%v", v, err)
	}
	// NaN cannot be projected; it is recorded but passed through.
	v, err = c.Range("queue-bounds", 0.7, math.NaN(), 0, 10, 0)
	if err != nil || !math.IsNaN(v) {
		t.Fatalf("clamp NaN: v=%v err=%v", v, err)
	}
	s := c.Stats()
	if s.Total != 3 || s.Clamped != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRangeTolerance(t *testing.T) {
	c := NewPolicy(Record)
	if _, err := c.Range("q", 0, 10.5, 0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if c.Violations() != 0 {
		t.Fatalf("in-tolerance value counted: %d", c.Violations())
	}
	if _, _ = c.Range("q", 0, 11.5, 0, 10, 1); c.Violations() != 1 {
		t.Fatalf("out-of-tolerance value not counted")
	}
}

func TestMonotoneTime(t *testing.T) {
	c := NewPolicy(Record)
	for _, tm := range []float64{0, 1, 1, 2.5} {
		if err := c.MonotoneTime(tm); err != nil {
			t.Fatal(err)
		}
	}
	if c.Violations() != 0 {
		t.Fatalf("monotone sequence flagged: %d", c.Violations())
	}
	_ = c.MonotoneTime(2.0)
	if c.Violations() != 1 {
		t.Fatal("backwards time not flagged")
	}
	_ = c.MonotoneTime(math.NaN())
	if c.Violations() != 2 {
		t.Fatal("NaN time not flagged")
	}
}

func TestFinite2(t *testing.T) {
	c := NewPolicy(Record)
	if err := c.Finite2(0, 1, 2); err != nil || c.Violations() != 0 {
		t.Fatal("finite state flagged")
	}
	_ = c.Finite2(1, math.Inf(1), 0)
	_ = c.Finite2(2, 0, math.NaN())
	if c.Violations() != 2 {
		t.Fatalf("non-finite states not flagged: %d", c.Violations())
	}
}

func TestStatsCopyIsIndependent(t *testing.T) {
	c := NewPolicy(Record)
	_ = c.Fail("a", 0, "x")
	s := c.Stats()
	s.ByPredicate["a"] = 99
	s.First[0].Predicate = "mutated"
	if c.Stats().ByPredicate["a"] != 1 || c.Stats().First[0].Predicate != "a" {
		t.Fatal("Stats() aliases internal state")
	}
}

func TestCheckOnlyFormatsOnFailure(t *testing.T) {
	c := NewPolicy(Strict)
	if err := c.Check("p", 0, true, "should not matter %d", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Check("p", 3, false, "q=%g", 7.0); err == nil {
		t.Fatal("strict check passed a false predicate")
	} else if !strings.Contains(err.Error(), "q=7") {
		t.Fatalf("detail not formatted: %v", err)
	}
}
