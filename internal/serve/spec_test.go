package serve

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"bcnphase/internal/core"
	"bcnphase/internal/faults"
)

// solveSpec returns a valid solve job over the paper's worked example.
func solveSpec() Spec {
	return Spec{Kind: KindSolve, Solve: &SolveSpec{Params: core.PaperExample()}}
}

func netsimSpec() Spec {
	return Spec{Kind: KindNetsim, Netsim: &NetsimSpec{
		N: 4, Capacity: 1e9, BufferBits: 4e6, Q0: 5e5, DurationSec: 0.002, Seed: 7,
	}}
}

func sweepSpec() Spec {
	return Spec{Kind: KindSweep, Sweep: &SweepSpec{
		BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 1.0 / 512, GdHi: 0.1, Steps: 3,
	}}
}

func TestDecodeSpecValid(t *testing.T) {
	for name, body := range map[string]string{
		"solve":  `{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		"sweep":  `{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		"netsim": `{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002}}`,
	} {
		if _, err := DecodeSpec(strings.NewReader(body), 0); err != nil {
			t.Errorf("%s: valid spec rejected: %v", name, err)
		}
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"not json":         `{{{`,
		"unknown field":    `{"kind":"solve","bogus":1}`,
		"trailing data":    `{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}} extra`,
		"unknown kind":     `{"kind":"dance"}`,
		"no body":          `{"kind":"solve"}`,
		"two bodies":       `{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}},"sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		"kind/body cross":  `{"kind":"sweep","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		"bad params":       `{"kind":"solve","solve":{"params":{"N":-1,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		"bad policy":       `{"kind":"solve","invariants":"loose","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		"negative timeout": `{"kind":"solve","timeout_ms":-5,"solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		"huge sweep":       `{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":4096}}`,
		"sweep b<=q0":      `{"kind":"sweep","sweep":{"b_over_q0":0.5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		"netsim too long":  `{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":3600}}`,
		"netsim bad fault": `{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002,"faults":{"FeedbackLoss":2}}}`,
		// The analytic knob is gone (Format 5): naming it is an unknown
		// field, whatever its value.
		"analytic on":    `{"kind":"solve","analytic":"on","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		"analytic off":   `{"kind":"sweep","analytic":"off","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		"shard analytic": `{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"analytic":"off"},"index":0,"points":[{"gi":0.05,"gd":0.001}]}}`,
	}
	for name, body := range cases {
		if _, err := DecodeSpec(strings.NewReader(body), 0); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: error does not wrap ErrSpec: %v", name, err)
		}
	}
}

// TestDecodeSpecTrailing: only JSON whitespace may follow a spec, on the
// canonical path and the encoding/json path alike, and a spec padded
// past the body cap is refused as too large.
func TestDecodeSpecTrailing(t *testing.T) {
	for name, body := range map[string]string{
		"canonical": `{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		"reordered": `{"sweep":{"steps":3,"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1},"kind":"sweep"}`,
	} {
		for _, tc := range []struct {
			suffix string
			ok     bool
		}{
			{"", true}, {" \t\r\n", true},
			{"]", false}, {"}", false}, {"} garbage", false}, {" ]", false},
			{" x", false}, {"{}", false}, {"\x00", false},
		} {
			_, err := DecodeSpec(strings.NewReader(body+tc.suffix), 0)
			if (err == nil) != tc.ok {
				t.Errorf("%s + %q: err = %v, want ok=%v", name, tc.suffix, err, tc.ok)
			}
			if err != nil && !errors.Is(err, ErrSpec) {
				t.Errorf("%s + %q: error does not wrap ErrSpec: %v", name, tc.suffix, err)
			}
		}
		padded := body + strings.Repeat(" ", 64)
		var tooBig *http.MaxBytesError
		if _, err := DecodeSpec(strings.NewReader(padded), int64(len(body)+32)); !errors.As(err, &tooBig) || !errors.Is(err, ErrSpec) {
			t.Errorf("%s padded past the cap: err = %v, want ErrSpec and *http.MaxBytesError", name, err)
		}
	}
}

// A spec with broken physics is admissible when it explicitly asks for
// a checked policy — that is the path that feeds the circuit breaker —
// but never under the default off policy.
func TestDecodeSpecBrokenParamsNeedCheckedPolicy(t *testing.T) {
	const broken = `{"kind":"solve","invariants":"%s","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":-1,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`
	for _, pol := range []string{"strict", "record", "clamp"} {
		if _, err := DecodeSpec(strings.NewReader(strings.Replace(broken, "%s", pol, 1)), 0); err != nil {
			t.Errorf("broken params under %s rejected: %v", pol, err)
		}
	}
	if _, err := DecodeSpec(strings.NewReader(strings.Replace(broken, `,"invariants":"%s"`, "", 1)), 0); err == nil {
		t.Error("broken params under off policy accepted")
	}
}

func TestSpecKeyIdentity(t *testing.T) {
	a := solveSpec()
	b := solveSpec()
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := b.Key()
	if ka != kb {
		t.Error("identical specs hash differently")
	}
	// Execution knobs do not change identity.
	b.TimeoutMs = 5000
	if kb, _ = b.Key(); ka != kb {
		t.Error("timeout_ms changed the dedup key")
	}
	// The invariant policy does ("" normalizes to "off").
	b.Invariants = "off"
	if kb, _ = b.Key(); ka != kb {
		t.Error(`"" and "off" policies hash differently`)
	}
	b.Invariants = "strict"
	if kb, _ = b.Key(); ka == kb {
		t.Error("policy change did not change the dedup key")
	}
	// Any scientific parameter does.
	c := solveSpec()
	c.Solve.Params.Gi *= 2
	if kc, _ := c.Key(); ka == kc {
		t.Error("parameter change did not change the dedup key")
	}
}

func TestSpecTimeoutResolution(t *testing.T) {
	sp := solveSpec()
	if d := sp.Timeout(30*time.Second, 2*time.Minute); d != 30*time.Second {
		t.Errorf("default timeout: got %v", d)
	}
	sp.TimeoutMs = 100
	if d := sp.Timeout(30*time.Second, 2*time.Minute); d != 100*time.Millisecond {
		t.Errorf("explicit timeout: got %v", d)
	}
	sp.TimeoutMs = int64((10 * time.Minute) / time.Millisecond)
	if d := sp.Timeout(30*time.Second, 2*time.Minute); d != 2*time.Minute {
		t.Errorf("cap not applied: got %v", d)
	}
}

func TestRegionKeyBuckets(t *testing.T) {
	a, b := solveSpec(), solveSpec()
	// Same binary-log bucket → same region.
	b.Solve.Params.Gi = a.Solve.Params.Gi * 1.01
	if a.RegionKey() != b.RegionKey() {
		t.Errorf("near-identical gains in different regions: %s vs %s", a.RegionKey(), b.RegionKey())
	}
	// A decade apart → different region.
	b.Solve.Params.Gi = a.Solve.Params.Gi * 10
	if a.RegionKey() == b.RegionKey() {
		t.Error("gains a decade apart share a region")
	}
	if ns := netsimSpec(); ns.RegionKey() == a.RegionKey() {
		t.Error("netsim and solve share a region")
	}
	if sw := sweepSpec(); !strings.HasPrefix(sw.RegionKey(), "sweep:") {
		t.Errorf("sweep region key: %s", sw.RegionKey())
	}
}

func TestNetsimSpecDefaults(t *testing.T) {
	ns := netsimSpec().Netsim
	cfg := ns.config(0)
	if cfg.LineRate != cfg.Capacity || cfg.FrameBits != 12000 || !(cfg.Gi > 0) || !(cfg.Gd > 0) {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("defaulted config invalid: %v", err)
	}
	withFaults := netsimSpec()
	withFaults.Netsim.Faults = &faults.Config{Seed: 7, FeedbackLoss: 0.2}
	if err := withFaults.Validate(); err != nil {
		t.Errorf("faulted netsim spec rejected: %v", err)
	}
}
