// Package invariant is the runtime guardrail layer of the repository:
// a Checker evaluates registered model invariants — state finiteness,
// queue bounds 0 ≤ q ≤ B, per-flow rate bounds 0 ≤ rate ≤ C, monotone
// simulation time, σ-sign consistency with the active control branch,
// event-queue ordering — at every accepted solver step and delivered
// simulator event.
//
// The paper's whole argument rests on these invariants (Definition 1
// "strong stability" is literally "the queue stays in (0, B)"), yet a
// numerical solver or discrete-event engine will happily integrate
// through a silently-wrong state. The Checker makes every run
// self-checking, with three violation policies:
//
//   - Strict: the first violation aborts the run with a structured
//     *InvariantError carrying the failed predicate, the simulation time
//     and the offending state.
//   - Record: violations are counted per predicate and the first few are
//     retained verbatim; the run continues and callers surface the tally
//     (sweep CSV columns, netsim Result, CLI summaries).
//   - Clamp: range violations are projected back onto the feasible set
//     (and counted); non-clampable predicates degrade to Record. This is
//     the graceful-degradation mode for long batch runs.
//
// A nil *Checker is valid everywhere and checks nothing, so guarded code
// pays one nil comparison when invariant checking is off.
//
// Checker is NOT safe for concurrent use: solver and simulator runs are
// single-goroutine, and parameter sweeps attach one Checker per grid
// point.
package invariant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Policy selects how a Checker reacts to a violated invariant.
type Policy int

// The violation policies. The zero value is Off.
const (
	// Off disables checking entirely.
	Off Policy = iota
	// Record counts violations (plus first-N samples) and continues.
	Record
	// Strict aborts at the first violation with an *InvariantError.
	Strict
	// Clamp projects range violations back into the feasible set,
	// counting them; non-clampable predicates behave like Record.
	Clamp
)

// String names the policy ("off", "record", "strict", "clamp").
func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Record:
		return "record"
	case Strict:
		return "strict"
	case Clamp:
		return "clamp"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a CLI flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "none", "":
		return Off, nil
	case "record":
		return Record, nil
	case "strict":
		return Strict, nil
	case "clamp":
		return Clamp, nil
	default:
		return Off, fmt.Errorf("invariant: unknown policy %q (want off, record, strict or clamp)", s)
	}
}

// Violation is one observed invariant failure.
type Violation struct {
	// Predicate names the failed invariant (e.g. "queue-bounds").
	Predicate string
	// T is the simulation time of the violation in seconds.
	T float64
	// Detail describes the offending state.
	Detail string
}

// String renders the violation for logs and error messages.
func (v Violation) String() string {
	return fmt.Sprintf("%s at t=%.9g: %s", v.Predicate, v.T, v.Detail)
}

// InvariantError is the structured abort of a Strict checker: it names
// the failed predicate and carries the simulation time and state detail.
type InvariantError struct {
	Violation Violation
}

// Error describes the violated invariant.
func (e *InvariantError) Error() string {
	return "invariant violated: " + e.Violation.String()
}

// ErrConfig wraps Config validation failures.
var ErrConfig = errors.New("invariant: invalid config")

// Config configures a Checker.
type Config struct {
	// Policy selects the violation reaction (default Off).
	Policy Policy
	// MaxSamples bounds how many violations are retained verbatim in
	// Stats.First (default 8; 0 means the default, negative is invalid).
	MaxSamples int
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch c.Policy {
	case Off, Record, Strict, Clamp:
	default:
		return fmt.Errorf("%w: unknown policy %d", ErrConfig, int(c.Policy))
	}
	if c.MaxSamples < 0 {
		return fmt.Errorf("%w: MaxSamples=%d must be non-negative", ErrConfig, c.MaxSamples)
	}
	return nil
}

// Stats summarizes the violations a Checker observed.
type Stats struct {
	// Total counts every violation.
	Total uint64
	// Clamped counts violations repaired by the Clamp policy.
	Clamped uint64
	// ByPredicate tallies violations per predicate name (nil when none).
	ByPredicate map[string]uint64
	// First retains the first MaxSamples violations verbatim.
	First []Violation
}

// Summary renders a one-line human-readable tally: "ok" for a clean run,
// otherwise the per-predicate counts in lexical order.
func (s Stats) Summary() string {
	if s.Total == 0 {
		return "ok (0 violations)"
	}
	preds := make([]string, 0, len(s.ByPredicate))
	for p := range s.ByPredicate {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var b strings.Builder
	fmt.Fprintf(&b, "%d violations", s.Total)
	if s.Clamped > 0 {
		fmt.Fprintf(&b, " (%d clamped)", s.Clamped)
	}
	b.WriteString(":")
	for _, p := range preds {
		fmt.Fprintf(&b, " %s=%d", p, s.ByPredicate[p])
	}
	return b.String()
}

// FirstPredicate returns the predicate name of the earliest retained
// violation, or "" when the run was clean.
func (s Stats) FirstPredicate() string {
	if len(s.First) == 0 {
		return ""
	}
	return s.First[0].Predicate
}

// Checker evaluates invariants under a violation policy. The zero value
// and the nil pointer both check nothing (policy Off).
type Checker struct {
	cfg   Config
	stats Stats
	// lastT backs the monotone-time predicate; NaN until the first
	// observation.
	lastT    float64
	haveLast bool
}

// New builds a Checker; a Config with Policy Off yields a Checker that
// counts nothing (identical in behavior to a nil *Checker).
func New(cfg Config) (*Checker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSamples == 0 {
		cfg.MaxSamples = 8
	}
	return &Checker{cfg: cfg}, nil
}

// NewPolicy builds a Checker with the default sample retention; Off
// returns nil so guarded code short-circuits on the nil check.
func NewPolicy(p Policy) *Checker {
	if p == Off {
		return nil
	}
	c, err := New(Config{Policy: p})
	if err != nil { // unreachable: every named policy validates
		panic(err)
	}
	return c
}

// Enabled reports whether the checker evaluates anything; nil-safe.
func (c *Checker) Enabled() bool {
	return c != nil && c.cfg.Policy != Off
}

// Policy returns the active policy (Off for a nil Checker).
func (c *Checker) Policy() Policy {
	if c == nil {
		return Off
	}
	return c.cfg.Policy
}

// Stats returns a copy of the tallies collected so far; nil-safe.
func (c *Checker) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := c.stats
	if c.stats.ByPredicate != nil {
		s.ByPredicate = make(map[string]uint64, len(c.stats.ByPredicate))
		for k, v := range c.stats.ByPredicate {
			s.ByPredicate[k] = v
		}
	}
	s.First = append([]Violation(nil), c.stats.First...)
	return s
}

// Violations returns the total violation count; nil-safe.
func (c *Checker) Violations() uint64 {
	if c == nil {
		return 0
	}
	return c.stats.Total
}

// FirstPredicate returns the predicate of the earliest retained
// violation, or "" when the run was clean; nil-safe. Unlike
// Stats().FirstPredicate it copies nothing.
func (c *Checker) FirstPredicate() string {
	if c == nil {
		return ""
	}
	return c.stats.FirstPredicate()
}

// Reset clears the tallies and the monotone-time clock, keeping the
// policy and the tally storage, so one Checker can serve a run of
// independent solves (the points of a sweep span, or a solve restarted
// from t = 0); nil-safe.
func (c *Checker) Reset() {
	if c == nil {
		return
	}
	c.stats.Total, c.stats.Clamped = 0, 0
	clear(c.stats.ByPredicate)
	c.stats.First = c.stats.First[:0]
	c.lastT, c.haveLast = 0, false
}

// Fail records a violation of pred at time t with the given state detail
// and returns the policy's verdict: a *InvariantError under Strict, nil
// otherwise (the run continues).
func (c *Checker) Fail(pred string, t float64, detail string) error {
	if !c.Enabled() {
		return nil
	}
	v := Violation{Predicate: pred, T: t, Detail: detail}
	c.stats.Total++
	if c.stats.ByPredicate == nil {
		c.stats.ByPredicate = make(map[string]uint64, 4)
	}
	c.stats.ByPredicate[pred]++
	if len(c.stats.First) < c.cfg.MaxSamples {
		c.stats.First = append(c.stats.First, v)
	}
	if c.cfg.Policy == Strict {
		return &InvariantError{Violation: v}
	}
	return nil
}

// Failf is Fail with deferred formatting: the detail is only rendered
// when the checker is enabled.
func (c *Checker) Failf(pred string, t float64, format string, args ...any) error {
	if !c.Enabled() {
		return nil
	}
	return c.Fail(pred, t, fmt.Sprintf(format, args...))
}

// Check asserts ok; a false ok is a violation of pred. The detail string
// is only formatted on failure, but the caller boxes args into the
// ...any slice on every call, passing or not; a hot path should test its
// condition inline and call Failf only when it fails.
func (c *Checker) Check(pred string, t float64, ok bool, format string, args ...any) error {
	if ok || !c.Enabled() {
		return nil
	}
	return c.Fail(pred, t, fmt.Sprintf(format, args...))
}

// Finite2 asserts both state components are finite (predicate "finite").
func (c *Checker) Finite2(t, x, y float64) error {
	if !c.Enabled() {
		return nil
	}
	if isFinite(x) && isFinite(y) {
		return nil
	}
	return c.Fail("finite", t, fmt.Sprintf("state (%v, %v) is not finite", x, y))
}

// Range asserts lo ≤ v ≤ hi (with an absolute slack tol ≥ 0 on both
// ends) and returns the possibly-repaired value: under Clamp a violating
// v is projected onto [lo, hi]; under Record the original v passes
// through; under Strict err is a *InvariantError. NaN never clamps — it
// has no nearest feasible point — and is reported under every policy.
func (c *Checker) Range(pred string, t, v, lo, hi, tol float64) (float64, error) {
	if !c.Enabled() {
		return v, nil
	}
	if math.IsNaN(v) {
		return v, c.Fail(pred, t, fmt.Sprintf("value NaN outside [%g, %g]", lo, hi))
	}
	if v >= lo-tol && v <= hi+tol {
		return v, nil
	}
	err := c.Fail(pred, t, fmt.Sprintf("value %g outside [%g, %g]", v, lo, hi))
	if err != nil {
		return v, err
	}
	if c.cfg.Policy == Clamp {
		c.stats.Clamped++
		if v < lo {
			return lo, nil
		}
		return hi, nil
	}
	return v, nil
}

// MonotoneTime asserts the observed time never decreases across calls
// (predicate "monotone-time").
func (c *Checker) MonotoneTime(t float64) error {
	if !c.Enabled() {
		return nil
	}
	if math.IsNaN(t) {
		return c.Fail("monotone-time", t, "time is NaN")
	}
	if c.haveLast && t < c.lastT {
		return c.Fail("monotone-time", t, fmt.Sprintf("time went backwards: %.12g after %.12g", t, c.lastT))
	}
	c.lastT = t
	c.haveLast = true
	return nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
