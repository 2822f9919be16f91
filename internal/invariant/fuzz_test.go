package invariant

import (
	"math"
	"testing"
)

// FuzzCheckerConfig drives Config validation and, for accepted configs, a
// short randomized check sequence: whatever the policy, the Checker must
// never panic, Strict must error exactly when a predicate fails, and the
// tallies must account for every failure.
func FuzzCheckerConfig(f *testing.F) {
	f.Add(int8(0), 0, 1.0, 0.0, 10.0)
	f.Add(int8(1), 8, -5.0, 0.0, 10.0)
	f.Add(int8(2), 1, math.NaN(), -1.0, 1.0)
	f.Add(int8(3), 100, 11.0, 0.0, 10.0)
	f.Add(int8(9), -3, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, pol int8, samples int, v, lo, hi float64) {
		cfg := Config{Policy: Policy(pol), MaxSamples: samples}
		c, err := New(cfg)
		if err != nil {
			if cfg.Validate() == nil {
				t.Fatalf("New rejected a config Validate accepts: %+v", cfg)
			}
			return
		}
		if cfg.Validate() != nil {
			t.Fatalf("New accepted a config Validate rejects: %+v", cfg)
		}

		before := c.Violations()
		got, rerr := c.Range("fuzz-range", 0, v, lo, hi, 0)
		inRange := !math.IsNaN(v) && v >= lo && v <= hi
		switch {
		case !c.Enabled():
			if rerr != nil || got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("disabled checker acted: got=%v err=%v", got, rerr)
			}
		case inRange:
			if rerr != nil || c.Violations() != before {
				t.Fatalf("in-range value flagged: err=%v", rerr)
			}
		default:
			if c.Violations() != before+1 {
				t.Fatalf("violation not counted")
			}
			if (rerr != nil) != (c.cfg.Policy == Strict) {
				t.Fatalf("policy %v returned err=%v", c.cfg.Policy, rerr)
			}
			// An inverted interval (lo > hi) is empty: no clamp result can
			// land inside it, so the containment oracle only applies to
			// well-formed bounds. Clamp still must answer one of the bounds.
			if c.cfg.Policy == Clamp && !math.IsNaN(v) {
				if lo <= hi && (got < lo || got > hi) {
					t.Fatalf("clamp left value %v outside [%v, %v]", got, lo, hi)
				}
				if got != lo && got != hi {
					t.Fatalf("clamp answered %v, neither bound of [%v, %v]", got, lo, hi)
				}
			}
		}

		// Monotone-time must tolerate any float sequence without panicking.
		_ = c.MonotoneTime(v)
		_ = c.MonotoneTime(lo)
		_ = c.MonotoneTime(hi)
		s := c.Stats()
		if s.Total != c.Violations() {
			t.Fatalf("Stats.Total=%d disagrees with Violations()=%d", s.Total, c.Violations())
		}
		var byPred uint64
		for _, n := range s.ByPredicate {
			byPred += n
		}
		if byPred != s.Total {
			t.Fatalf("per-predicate tallies %d != total %d", byPred, s.Total)
		}
		if uint64(len(s.First)) > s.Total {
			t.Fatalf("retained %d samples for %d violations", len(s.First), s.Total)
		}
	})
}
