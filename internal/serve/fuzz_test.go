package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/runstate"
)

// FuzzDecodeSpec hammers the job-spec decoder with arbitrary bytes. The
// contract under fuzzing is the serving layer's 400-vs-500 boundary:
// every rejection must wrap ErrSpec (the handler's 400 path), never
// panic, and every accepted spec must be hashable, region-bucketable
// and stable under a re-encode round trip — otherwise a malformed
// request could reach a worker or split the dedup key space.
func FuzzDecodeSpec(f *testing.F) {
	seeds := []string{
		// Valid specs of each kind.
		`{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"points":[{"gi":0.05,"gd":0.001},{"gi":0.05,"gd":0.1}]}}`,
		// Broken physics admissible only under an explicit checked policy.
		`{"kind":"solve","invariants":"strict","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":-1,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		// Execution knobs and optional fields.
		`{"kind":"solve","timeout_ms":250,"invariants":"record","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6},"start":[-2.5e6,0],"max_arcs":10}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002,"pause":true,"faults":{"Seed":7,"FeedbackLoss":0.3}}}`,
		// The classic rejects.
		``, `null`, `"solve"`, `[1,2,3]`, `{{{`,
		`{"kind":"dance"}`,
		`{"kind":"solve"}`,
		`{"kind":"solve","bogus":1}`,
		`{"kind":"solve","solve":{"params":{"N":-1}}}`,
		`{"kind":"solve","timeout_ms":-5,"solve":{}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":1e999,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":4096}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":3600}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002,"faults":{"FeedbackLoss":2}}}`,
		`{"kind":"solve","solve":{"params":{"N":50}}} trailing`,
		// Shard rejects: spec-level policy (the grid carries it), bad index,
		// empty point list.
		`{"kind":"shard","invariants":"record","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"points":[{"gi":0.05,"gd":0.001}]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":-1,"points":[{"gi":0.05,"gd":0.001}]}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":0,"points":[]}}`,
		// Trailing closers and garbage after a complete spec.
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}]`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}} garbage`,
		// The retired analytic knob is an unknown field.
		`{"kind":"solve","analytic":"off","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6}}}`,
		`{"kind":"shard","shard":{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2,"analytic":"on"},"index":0,"points":[{"gi":0.05,"gd":0.001}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := DecodeSpec(bytes.NewReader(body), DefaultMaxBodyBytes)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("rejection does not wrap ErrSpec (handler would 500, not 400): %v", err)
			}
			return
		}
		key, err := sp.Key()
		if err != nil || len(key) != 64 {
			t.Fatalf("accepted spec has no dedup key: %q, %v", key, err)
		}
		if sp.RegionKey() == "" {
			t.Fatal("accepted spec has empty breaker region")
		}
		if d := sp.Timeout(time.Second, time.Minute); d <= 0 || d > time.Minute {
			t.Fatalf("accepted spec resolves timeout %v outside (0, cap]", d)
		}
		// Round trip: the spec's own encoding must decode to the same
		// dedup key, or a resubmitted job would miss its cached artifact.
		again, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		sp2, err := DecodeSpec(bytes.NewReader(again), DefaultMaxBodyBytes)
		if err != nil {
			t.Fatalf("re-encoded accepted spec rejected: %v", err)
		}
		if key2, _ := sp2.Key(); key2 != key {
			t.Fatalf("dedup key unstable across re-encode: %s vs %s", key, key2)
		}
	})
}

// referenceDecodeSpec is DecodeSpec on encoding/json alone — the
// strict decoder, nothing but whitespace after the spec, then Validate
// — with DecodeSpec's error wrapping. FuzzSpecCodec holds the canonical
// path to it.
func referenceDecodeSpec(body []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return Spec{}, fmt.Errorf("%w: trailing data after value", ErrSpec)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// FuzzSpecCodec holds the job codec to encoding/json, in the style of
// cluster's FuzzRowCodec. For arbitrary bytes DecodeSpec returns the
// spec and the error the encoding/json reference returns, and whenever
// the canonical reader accepts a body encoding/json decodes the same
// spec from it. For every accepted spec the identity bytes behind Key,
// the artifact bytes its job serves and, for a shard, the job the
// coordinator posts are json.Marshal's. The identity and artifact
// appenders also meet arbitrary strings and float bits directly.
func FuzzSpecCodec(f *testing.F) {
	const params = `{"N":50,"C":10000000000,"Ru":8000000,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2500000,"B":5000000,"Qsc":0}`
	const grid = `{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2`
	seeds := []string{
		// Canonical forms of each kind the reader takes.
		`{"kind":"solve","solve":{"params":` + params + `}}`,
		`{"kind":"solve","timeout_ms":250,"invariants":"record","solve":{"params":` + params + `,"start":[-2500000,0],"max_arcs":10}}`,
		`{"kind":"solve","invariants":"strict","solve":{"params":{"N":50,"C":10000000000,"Ru":8000000,"Gi":4,"Gd":-1,"W":2,"Pm":0.01,"Q0":2500000,"B":5000000,"Qsc":0}}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}` + " \n",
		`{"kind":"shard","shard":{"grid":` + grid + `},"index":0,"points":[{"gi":0.05,"gd":0.001},{"gi":0.05,"gd":0.1}]}}`,
		`{"kind":"shard","timeout_ms":2700,"shard":{"grid":` + grid + `,"invariants":"record"},"index":1,"points":[{"gi":1,"gd":1e-7}]}}`,
		`{"kind":"shard","shard":{"grid":` + grid + `},"index":0,"points":[]}}`,
		// Numbers at the edges of the grammar and of float64.
		`{"kind":"solve","solve":{"params":{"N":50,"C":1E+10,"Ru":8e6,"Gi":-0,"Gd":0.0078125,"W":2.000,"Pm":1e-2,"Q0":2.5e6,"B":5e6,"Qsc":1e-400}}}`,
		`{"kind":"solve","solve":{"params":{"N":-0,"C":1e999,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6,"Qsc":0}}}`,
		`{"kind":"solve","solve":{"params":{"N":5e1,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6,"Qsc":0}}}`,
		`{"kind":"solve","solve":{"params":{"N":050,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6,"Qsc":0}}}`,
		`{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":0.0078125,"W":2.,"Pm":0.01,"Q0":2.5e6,"B":5e6,"Qsc":0}}}`,
		`{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":4,"Gd":.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6,"Qsc":0}}}`,
		`{"kind":"solve","solve":{"params":{"N":50,"C":1e10,"Ru":8e6,"Gi":+4,"Gd":0.0078125,"W":2,"Pm":0.01,"Q0":2.5e6,"B":5e6,"Qsc":1e}}}`,
		`{"kind":"solve","timeout_ms":9223372036854775808,"solve":{"params":` + params + `}}`,
		`{"kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":99999999999999999999}}`,
		// What the reader leaves to encoding/json: reordered and
		// case-folded keys, escapes, unknown and duplicated fields, nulls,
		// short and long arrays, inner whitespace, netsim.
		`{"solve":{"params":` + params + `},"kind":"solve"}`,
		`{"Kind":"solve","Solve":{"Params":` + params + `}}`,
		`{"kind":"solve","solve":{"params":` + params + `}}`,
		`{"kind":"solve","solve":{"params":` + params + `,"bogus":1}}`,
		`{"kind":"solve","kind":"sweep","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"solve","solve":{"params":` + params + `,"start":null}}`,
		`{"kind":"solve","solve":{"params":` + params + `,"start":[1]}}`,
		`{"kind":"solve","solve":{"params":` + params + `,"start":[1,2,3]}}`,
		`{"kind":"solve","solve":{"params":{"N":50}}}`,
		`{"kind":"shard","shard":{"grid":` + grid + `},"index":0,"points":null}}`,
		`{ "kind": "solve", "solve": {"params":` + params + `}}`,
		`{"kind":"netsim","netsim":{"n":4,"capacity":1e9,"buffer_bits":4e6,"q0":5e5,"duration_sec":0.002,"faults":{"Seed":7,"FeedbackLoss":0.3}}}`,
		// Trailing data.
		`{"kind":"solve","solve":{"params":` + params + `}}]`,
		`{"kind":"solve","solve":{"params":` + params + `}}} x`,
		``, `{`, `null`,
		// The retired analytic knob, in the canonical field order it
		// had: an unknown field on both paths.
		`{"kind":"solve","invariants":"record","analytic":"off","solve":{"params":` + params + `}}`,
		`{"kind":"sweep","analytic":"on","sweep":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"kind":"shard","shard":{"grid":` + grid + `,"analytic":"auto"},"index":0,"points":[{"gi":0.05,"gd":0.001}]}}`,
	}
	texts := []string{"", "record", "<>&", "\xff", "é日本", `a"b\c`, "\x00\x1f", "\u2028", "0.05,0.001,1,true"}
	for i, s := range seeds {
		f.Add([]byte(s), texts[i%len(texts)], uint64(i*i*i), math.Float64bits(float64(i)*1e-7))
	}
	f.Add([]byte(`{"kind":"sweep"}`), "<>& \xff\x00é", math.Float64bits(math.NaN()), math.Float64bits(1e21))
	f.Add([]byte(`{"kind":"sweep"}`), `"\`, math.Float64bits(math.Inf(-1)), math.Float64bits(-1e-7))
	srv, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, text string, aBits, bBits uint64) {
		sp, err := DecodeSpec(bytes.NewReader(body), DefaultMaxBodyBytes)
		ref, refErr := referenceDecodeSpec(body)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(sp, ref) || !sameJSON(t, sp, ref) {
			t.Fatalf("DecodeSpec(%q) = %+v, %v; reference %+v, %v", body, sp, err, ref, refErr)
		}
		if fast, ok := readSpec(body); ok {
			var want Spec
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(fast, want) || !sameJSON(t, fast, want) {
				t.Fatalf("canonical read of %q = %+v; json.Unmarshal = %+v, %v", body, fast, want, err)
			}
		}
		if err == nil {
			checkIdentity(t, sp)
			if sp.Shard != nil {
				checkShardJob(t, sp)
			}
			if art := fuzzArtifact(t, srv, sp); art != nil {
				checkArtifact(t, art)
			}
		}

		// The appenders on arbitrary strings and float bits.
		a, b := math.Float64frombits(aBits), math.Float64frombits(bBits)
		n := int(int32(aBits))
		checkIdentity(t, Spec{Kind: text, Solve: &SolveSpec{
			Params:  core.Params{N: n, C: a, Ru: b, Gi: -a, Gd: b * 3, W: a / 7, Pm: b, Q0: a, B: b, Qsc: a},
			Start:   &[2]float64{b, a},
			MaxArcs: int(int32(bBits)),
		}})
		checkIdentity(t, Spec{Kind: text, Invariants: "record", Sweep: &SweepSpec{BOverQ0: a, GiLo: b, GiHi: a, GdLo: b, GdHi: a, Steps: n}})
		shard := &cluster.ShardSpec{
			Grid:   cluster.GainGrid{BOverQ0: b, GiLo: a, GiHi: b, GdLo: a, GdHi: b, Steps: n, Invariants: text},
			Index:  -n,
			Points: []cluster.GainPoint{{Gi: a, Gd: b}, {Gi: b, Gd: a}},
		}
		checkIdentity(t, Spec{Kind: KindShard, Shard: shard})
		checkShardJob(t, Spec{Kind: KindShard, TimeoutMs: int64(bBits), Shard: shard})
		for _, art := range []*Artifact{
			{Key: text, Kind: KindSolve, Invariants: text, Solve: &SolveResult{
				Case: text, Outcome: text, StronglyStable: aBits&1 == 1, LinearStable: bBits&1 == 1, Theorem1OK: aBits&2 == 2,
				Theorem1Bound: a, MaxQueueBits: b, MinQueueBits: -a, Rho: b / 3, Crossings: n, Violations: bBits,
				FirstViolation: text, Engine: text,
			}},
			{Key: text, Kind: KindSweep, Sweep: &SweepResult{Header: text, Rows: []string{text, "", text}, Points: n, Failed: -n, Violations: aBits}},
			{Kind: KindSweep, Sweep: &SweepResult{Rows: []string{}}},
			{Kind: KindSweep, Sweep: &SweepResult{}},
			{Key: text, Kind: KindShard, Shard: &cluster.ShardResult{
				Index: n, Rows: []cluster.Row{{CSV: text, Violations: bBits, FirstPred: text}, {}},
				RowSums: []string{text, ""}, Digest: text,
			}},
			{Kind: KindShard, Shard: &cluster.ShardResult{Rows: []cluster.Row{}, RowSums: []string{}}},
			{Kind: KindShard, Shard: &cluster.ShardResult{}},
		} {
			checkArtifact(t, art)
		}
	})
}

// sameJSON reports whether a and b marshal to the same bytes, which
// tells -0 from 0 where reflect.DeepEqual does not.
func sameJSON(t *testing.T, a, b Spec) bool {
	t.Helper()
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return bytes.Equal(ja, jb) && (errA == nil) == (errB == nil)
}

// checkIdentity requires Key's identity bytes to be json.Marshal's and
// Key to be runstate.HashJSON of the identity, and requires the
// appender to decline only what it leaves to encoding/json.
func checkIdentity(t *testing.T, sp Spec) {
	t.Helper()
	id, err := sp.identity()
	if err != nil {
		return
	}
	want, wantErr := json.Marshal(id)
	if got, ok := appendIdentity([]byte("prefix"), &id); ok {
		if wantErr != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("identity bytes %q; json.Marshal %q, %v", got[min(len(got), len("prefix")):], want, wantErr)
		}
	} else if wantErr == nil && id.Netsim == nil {
		t.Fatalf("identity appender declined %q, which json.Marshal encodes", want)
	}
	key, keyErr := sp.Key()
	refKey, refErr := runstate.HashJSON(id)
	if key != refKey || fmt.Sprint(keyErr) != fmt.Sprint(refErr) {
		t.Fatalf("Key = %s, %v; runstate.HashJSON = %s, %v", key, keyErr, refKey, refErr)
	}
}

// checkShardJob requires the shard job the coordinator posts for a
// shard spec to be json.Marshal's bytes for the same spec — and, when
// it encodes, to take the worker's canonical read path.
func checkShardJob(t *testing.T, sp Spec) {
	t.Helper()
	job, err := cluster.EncodeShardJob(sp.Shard, sp.TimeoutMs)
	want, wantErr := json.Marshal(Spec{Kind: KindShard, TimeoutMs: sp.TimeoutMs, Shard: sp.Shard})
	if (err == nil) != (wantErr == nil) || !bytes.Equal(job, want) {
		t.Fatalf("EncodeShardJob = %q, %v; json.Marshal %q, %v", job, err, want, wantErr)
	}
	if err != nil {
		return
	}
	if _, ok := readSpec(job); !ok && isPlainASCII(sp.Shard.Grid.Invariants) {
		t.Fatalf("shard job %q left the canonical read path", job)
	}
}

// isPlainASCII reports whether s is written without escapes, the only
// strings the canonical reader takes.
func isPlainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// fuzzArtifact runs an accepted spec to its artifact, for the jobs
// small enough to run per fuzz input: every solve, and sweeps and
// shards of at most 64 points. netsim artifacts stay on encoding/json
// and are not run.
func fuzzArtifact(t *testing.T, srv *Server, sp Spec) *Artifact {
	t.Helper()
	switch {
	case sp.Kind == KindNetsim:
		return nil
	case sp.Sweep != nil && sp.Sweep.Steps > 8:
		return nil
	case sp.Shard != nil && len(sp.Shard.Points) > 64:
		return nil
	}
	key, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	art, err := srv.run(ctx, sp, key)
	if err != nil {
		return nil
	}
	return art
}

// checkArtifact requires the artifact bytes execute serves to be
// json.Marshal's, with its error where it has one.
func checkArtifact(t *testing.T, art *Artifact) {
	t.Helper()
	want, wantErr := json.Marshal(art)
	if got, ok := appendArtifact([]byte("prefix"), art); ok {
		if wantErr != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("artifact bytes %q; json.Marshal %q, %v", got[min(len(got), len("prefix")):], want, wantErr)
		}
	} else if wantErr == nil && art.Netsim == nil {
		t.Fatalf("artifact appender declined %q, which json.Marshal encodes", want)
	}
	raw, err := encodeArtifact(art)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(raw, want) {
		t.Fatalf("encodeArtifact = %q, %v; json.Marshal %q, %v", raw, err, want, wantErr)
	}
}
