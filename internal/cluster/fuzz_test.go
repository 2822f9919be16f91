package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"bcnphase/internal/canonjson"
	"bcnphase/internal/core"
)

// FuzzDecodeSweepRequest hammers the coordinator's grid-submission
// decoder with arbitrary bytes. The contract is the 400-vs-500
// boundary: every rejection wraps ErrWire, never panics, and every
// accepted grid must fingerprint, enumerate and shard-plan cleanly —
// otherwise a malformed submission could reach the dispatch loop.
func FuzzDecodeSweepRequest(f *testing.F) {
	seeds := []string{
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":12.8,"gd_lo":0.0009765625,"gd_hi":0.5,"steps":10}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2,"invariants":"record"}`,
		// The classic rejects.
		``, `null`, `[1]`, `{{{`,
		`{"steps":1}`,
		`{"b_over_q0":0.5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}`,
		`{"b_over_q0":5,"gi_lo":-1,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}`,
		`{"b_over_q0":5,"gi_lo":1e999,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":4096}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"invariants":"dance"}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"bogus":1}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3} trailing`,
		// Trailing closers and garbage after a complete grid.
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}]`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3}} garbage`,
		// The retired analytic knob is an unknown field.
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"analytic":"off"}`,
		`{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":3,"invariants":"record","analytic":"on"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		g, err := DecodeSweepRequest(bytes.NewReader(body), MaxWireBytes)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection does not wrap ErrWire (handler would 500, not 400): %v", err)
			}
			return
		}
		fp, points, shards, err := PlanShards(g, DefaultShardSize)
		if err != nil {
			t.Fatalf("accepted grid does not plan: %v", err)
		}
		if len(fp) != 64 {
			t.Fatalf("accepted grid has malformed fingerprint %q", fp)
		}
		if len(points) != g.Steps*g.Steps {
			t.Fatalf("accepted grid enumerates %d points, want %d", len(points), g.Steps*g.Steps)
		}
		total := 0
		for _, sh := range shards {
			if len(sh.Points) == 0 || len(sh.Points) != len(sh.Keys) || len(sh.Points) != len(sh.GridIdx) {
				t.Fatalf("malformed shard %d: %d points, %d keys, %d indices",
					sh.Index, len(sh.Points), len(sh.Keys), len(sh.GridIdx))
			}
			spec := &ShardSpec{Grid: g, Index: sh.Index, Points: sh.Points}
			if err := spec.Validate(); err != nil {
				t.Fatalf("planned shard %d fails its own wire validation: %v", sh.Index, err)
			}
			total += len(sh.Points)
		}
		if total != len(points) {
			t.Fatalf("shards cover %d of %d points", total, len(points))
		}
	})
}

// FuzzDecodeShardArtifact hammers the worker-artifact decoder: no
// panic, every rejection wraps ErrWire, and every accepted result
// matches the assignment it claims to answer. Whenever the canonical
// parser accepts an input, json.Unmarshal must accept it too and
// decode the same envelope.
func FuzzDecodeShardArtifact(f *testing.F) {
	seeds := []string{
		`{"key":"k","kind":"shard","shard":{"index":0,"rows":[{"CSV":"a"},{"CSV":"b"}]}}`,
		`{"kind":"shard","shard":{"index":0,"rows":[{"CSV":"a","Violations":3,"FirstPred":"q_in_range"},{"CSV":"b"}]}}`,
		// Rejects: wrong kind, index mismatch, row-count mismatch, empty
		// row, garbage.
		`{"kind":"solve","solve":{}}`,
		`{"kind":"shard","shard":{"index":7,"rows":[{"CSV":"a"},{"CSV":"b"}]}}`,
		`{"kind":"shard","shard":{"index":0,"rows":[{"CSV":"a"}]}}`,
		`{"kind":"shard","shard":{"index":0,"rows":[{"CSV":""},{"CSV":"b"}]}}`,
		`{"kind":"shard"}`, ``, `null`, `{{{`, `[]`,
		// The canonical served form, signed and unsigned, and its edges.
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":0,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":2,"FirstPred":"q"}],"row_sums":["x","y"],"digest":"z"}}`,
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":0,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":""}]}}` + "\n",
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":0,"rows":[],"row_sums":[],"digest":""}}`,
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":-3,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":""}]}}`,
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":-0,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":""}]}}`,
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":0,"rows":[{"CSV":"a\u003c","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":"\xff"}]}}`,
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":0,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":""}],"digest":"d","digest":"e"}}`,
		`{"key":"k","kind":"solve","invariants":"off","shard":{"index":0,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":""}]}}`,
		`{"key":"k","kind":"shard","invariants":"off","shard":{"index":0,"rows":[{"CSV":"a","Violations":0,"FirstPred":""},{"CSV":"b","Violations":0,"FirstPred":""}]}}x`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	want := &ShardSpec{
		Grid:   GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 0.001, GdHi: 0.1, Steps: 2},
		Index:  0,
		Points: []GainPoint{{Gi: 0.05, Gd: 0.001}, {Gi: 0.05, Gd: 0.1}},
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := canonjson.NewReader(string(raw))
		fast := readArtifact(&r, len(want.Points))
		if r.End(); r.OK() {
			var ref shardArtifact
			if err := json.Unmarshal(raw, &ref); err != nil {
				t.Fatalf("canonical parser accepted %q; json.Unmarshal rejects it: %v", raw, err)
			}
			if ref.Key != fast.Key || ref.Kind != fast.Kind || ref.Shard == nil || !reflect.DeepEqual(*ref.Shard, *fast.Shard) {
				t.Fatalf("canonical parse of %q = %+v %+v; json.Unmarshal = %+v %+v", raw, fast, fast.Shard, ref, ref.Shard)
			}
		}
		res, err := DecodeShardArtifact(raw, want)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection does not wrap ErrWire: %v", err)
			}
			return
		}
		if res.Index != want.Index || len(res.Rows) != len(want.Points) {
			t.Fatalf("accepted result does not match assignment: %+v", res)
		}
		for i, r := range res.Rows {
			if r.CSV == "" {
				t.Fatalf("accepted result row %d is empty", i)
			}
		}
	})
}

// FuzzDecodeWorkerStatus hammers the heartbeat decoder: no panic, no
// accepted status with negative occupancy.
func FuzzDecodeWorkerStatus(f *testing.F) {
	seeds := []string{
		`{"draining":false,"workers":4,"queued":0,"in_flight":1,"active_jobs":1,"utilization":0.25}`,
		`{"draining":true}`,
		`{"unknown_future_field":1,"workers":2}`,
		`{"workers":-1}`, `{"queued":-3}`,
		``, `null`, `true`, `"status"`, `{{{`, `[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := DecodeWorkerStatus(raw)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection does not wrap ErrWire: %v", err)
			}
			return
		}
		if st.Workers < 0 || st.Queued < 0 || st.InFlight < 0 {
			t.Fatalf("accepted status with negative occupancy: %+v", st)
		}
	})
}

// sprintfRowLayout is the fmt layout map.csv rows were rendered with
// before the strconv appender; it survives only here, as the oracle.
const sprintfRowLayout = "%g,%g,%d,%v,%v,%g,%s,%v,%g,%g,%d,%s"

// FuzzAppendRow holds the row kernel EvalBatch writes map.csv rows
// with (appendAxis for gi and gd, then verdict.appendVerdict) to the
// Sprintf layout it replaced, byte for byte, over arbitrary float bits,
// case numbers, outcomes (named or not), violation counts and predicate
// strings.
// Every journal key, shard digest and golden map depends on rows
// keeping their exact bytes.
func FuzzAppendRow(f *testing.F) {
	add := func(v verdict) {
		f.Add(math.Float64bits(v.gi), math.Float64bits(v.gd), int(v.kind), v.linearStable, v.theorem1OK,
			math.Float64bits(v.theorem1Bound), int(v.outcome), math.Float64bits(v.maxQueue),
			math.Float64bits(v.rho), v.violations, v.firstPred)
	}
	// Where %g's form is delicate: non-finite values, signed zero,
	// subnormals, and both sides of the exponent-form switches
	// (1e20/1e21 and 1e-4/1e-5).
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		1e20, 1e21, -1e21, 123456789012345678901, 1e-4, 1e-5, 0.00012345, -0.000012345,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 5e6, 12.8, 0.0009765625,
	}
	for i, x := range specials {
		y := specials[(i+7)%len(specials)]
		add(verdict{gi: x, gd: y, kind: core.CaseKind(i%6 + 1), linearStable: i%2 == 0, theorem1OK: i%3 == 0,
			theorem1Bound: y, outcome: core.OutcomeConverged, maxQueue: x, rho: y})
	}
	// Every outcome, plus the unnamed ones on either side.
	for o := core.Outcome(0); o <= core.OutcomeHorizon+1; o++ {
		add(verdict{gi: 0.05, gd: 0.5, kind: core.Case1, linearStable: true, theorem1OK: true,
			theorem1Bound: 1.25e7, outcome: o, maxQueue: 4.2e6, rho: 0.93})
	}
	// Rows under a recording policy: nonzero tallies and a first
	// predicate.
	for _, first := range []string{"queue-bounds", "finite", "params-valid", "a,b", "\xff"} {
		add(verdict{gi: 1.6, gd: 0.01, kind: core.Case4, theorem1Bound: math.Inf(1),
			outcome: core.OutcomeOverflow, maxQueue: 5e6, rho: math.NaN(), violations: 3, firstPred: first})
	}
	add(verdict{kind: -1, outcome: -1, violations: math.MaxUint64})

	f.Fuzz(func(t *testing.T, gi, gd uint64, kind int, lin, thm bool, bound uint64, outcome int,
		maxQ, rho, violations uint64, first string) {
		v := verdict{
			gi: math.Float64frombits(gi), gd: math.Float64frombits(gd), kind: core.CaseKind(kind),
			linearStable: lin, theorem1OK: thm, theorem1Bound: math.Float64frombits(bound),
			outcome: core.Outcome(outcome), maxQueue: math.Float64frombits(maxQ),
			rho: math.Float64frombits(rho), violations: violations, firstPred: first,
		}
		want := fmt.Sprintf(sprintfRowLayout, v.gi, v.gd, int(v.kind), v.linearStable, v.theorem1OK,
			v.theorem1Bound, v.outcome, v.outcome.StronglyStable(), v.maxQueue, v.rho, v.violations, v.firstPred)
		row := v.appendVerdict(appendAxis(appendAxis([]byte("prefix:"), v.gi), v.gd))
		if got := string(row); got != "prefix:"+want {
			t.Fatalf("appender %q, Sprintf %q", got, "prefix:"+want)
		}
	})
}
