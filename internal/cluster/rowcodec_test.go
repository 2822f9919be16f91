package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"bcnphase/internal/canonjson"
	"bcnphase/internal/invariant"
	"bcnphase/internal/runstate"
)

// reflectivePointKey is PointKey as it was spelled before the row
// codec: runstate.HashJSON of the anonymous key struct. It survives only
// here, as the oracle.
func reflectivePointKey(fingerprint string, pt GainPoint) string {
	key, err := runstate.HashJSON(struct {
		FP     string
		Gi, Gd float64
	}{fingerprint, pt.Gi, pt.Gd})
	if err != nil {
		return fmt.Sprintf("unhashable:%g,%g", pt.Gi, pt.Gd)
	}
	return key
}

// FuzzRowCodec holds the cluster's codec to encoding/json over
// arbitrary strings and float bits: appendRowJSON is json.Marshal byte
// for byte, RowSum is runstate.HashJSON of the row, ShardDigest is the
// reference chain, PointKey is the reflective key, EncodeShardJob,
// AppendShardSpec and Fingerprint are encoding/json's bytes and hashes,
// and the row and shard spec readers accept, reject and decode exactly
// as json.Unmarshal does — on the canonical encoding and on arbitrary
// bytes alike.
func FuzzRowCodec(f *testing.F) {
	strs := []string{
		"", "0.05,0.001,1,true,true,831751.55,converged,true,831744.03,0.99,0,",
		"<>&", "a\"b\\c", "\x00\x01\x1f\x7f", "\b\f\n\r\t", "\xff", "a\xc3", "  ", "é日本\U0001F600",
		"rate-bounds", `{"CSV":"a","Violations":3,"FirstPred":"q"}`, `{"CSV":"a","Violations":0,"FirstPred":""} `,
		`{"CSV":"a","Violations":01,"FirstPred":""}`, `{"CSV":"a","Violations":-1,"FirstPred":""}`,
		`{"CSV":"a","Violations":18446744073709551615,"FirstPred":""}`,
		`{"CSV":"a","Violations":18446744073709551616,"FirstPred":""}`,
		`{"CSV":"<","Violations":1e3,"FirstPred":null}`, `{"csv":"a"}`, `{"CSV":"a"}x`,
		`{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2,"invariants":"record"},"index":3,"points":[{"gi":-0,"gd":1E-7}]}`,
		`{"grid":{"b_over_q0":5,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2},"index":-0,"points":[]}`,
		`{"grid":{"b_over_q0":1e999,"gi_lo":0.05,"gi_hi":1,"gd_lo":0.001,"gd_hi":0.1,"steps":2.0},"index":0,"points":null}`,
		"off", "auto",
	}
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e-7, -1e-7, 1e-6, 9.99999e-7,
		1e21, -1e21, 1e20, 999999999999999999999, math.MaxFloat64, 0.05, 12.8, 1.0 / 3,
	}
	for i, s := range strs {
		f.Add(s, uint64(i*i*i), strs[(i+3)%len(strs)], "53390e09bfcebf8bbfe3a3e67d7bef8a8791808a02ea71d4c2b0facdf016eb40",
			math.Float64bits(floats[i%len(floats)]), math.Float64bits(floats[(i+5)%len(floats)]))
	}
	f.Add("x", uint64(math.MaxUint64), "", "\xff<", math.Float64bits(1e-7), math.Float64bits(1e21))
	f.Fuzz(func(t *testing.T, csv string, violations uint64, first, fp string, giBits, gdBits uint64) {
		row := Row{CSV: csv, Violations: violations, FirstPred: first}
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRowJSON([]byte("prefix"), &row); string(got) != "prefix"+string(want) {
			t.Fatalf("appendRowJSON %q, json.Marshal %q", got[len("prefix"):], want)
		}
		if sum, _ := runstate.HashJSON(row); RowSum(row) != sum {
			t.Fatalf("RowSum %s, HashJSON %s", RowSum(row), sum)
		}
		if got, want := ShardDigest(len(csv), []string{csv, first, fp}), hashChain("shard:"+strconv.Itoa(len(csv)), csv, first, fp); got != want {
			t.Fatalf("ShardDigest %s, reference chain %s", got, want)
		}
		pt := GainPoint{Gi: math.Float64frombits(giBits), Gd: math.Float64frombits(gdBits)}
		if got, want := PointKey(fp, pt), reflectivePointKey(fp, pt); got != want {
			t.Fatalf("PointKey(%q, %v) = %s, reflective %s", fp, pt, got, want)
		}
		for _, raw := range [][]byte{want, []byte(csv), []byte(first)} {
			checkRowParser(t, raw)
		}
		policies := []string{"", "off", "record", "strict", "clamp", first}
		checkShardSpecCodec(t, &ShardSpec{
			Grid: GainGrid{
				BOverQ0: pt.Gi, GiLo: pt.Gd, GiHi: pt.Gi, GdLo: pt.Gd, GdHi: pt.Gi, Steps: int(int32(violations)),
				Invariants: policies[violations%uint64(len(policies))],
			},
			Index:  int(int32(violations >> 32)),
			Points: []GainPoint{pt, {Gi: pt.Gd, Gd: pt.Gi}},
		}, int64(violations))
		checkShardSpecCodec(t, &ShardSpec{Grid: GainGrid{Invariants: first}}, 0)
		checkShardSpecCodec(t, &ShardSpec{Grid: GainGrid{Invariants: csv}}, 0)
		// Grid-ordered points, whose repeated axis values the codec
		// copies and reuses, cut at an unaligned offset and labelled
		// with the true row length and a wrong one.
		steps := int(violations%5) + 1
		g := GainGrid{BOverQ0: 5, GiLo: pt.Gi, GiHi: pt.Gd, GdLo: pt.Gd, GdHi: math.Abs(pt.Gi) + 1, Steps: steps}
		pts := g.Points()
		pts = pts[int(violations>>8)%len(pts):]
		for _, rowLen := range []int{steps, steps + 1, MaxClusterSteps + 1} {
			g.Steps = rowLen
			checkShardSpecCodec(t, &ShardSpec{Grid: g, Points: pts}, 0)
		}
		for _, raw := range []string{csv, first} {
			checkShardSpecReader(t, []byte(raw))
		}
	})
}

// reflectiveFingerprint is GainGrid.Fingerprint as it was spelled
// before the canonical codec: runstate.HashJSON of the grid identity.
func reflectiveFingerprint(g GainGrid) (string, error) {
	pol, err := invariant.ParsePolicy(g.Invariants)
	if err != nil {
		return "", fmt.Errorf("cluster: %v", err)
	}
	return runstate.HashJSON(gridIdentity{
		Experiment: "bcnsweep/gainmap", Format: 6,
		BOverQ0: g.BOverQ0, GiLo: g.GiLo, GiHi: g.GiHi, GdLo: g.GdLo, GdHi: g.GdHi, Steps: g.Steps,
		Invariants: pol.String(),
	})
}

// checkShardSpecCodec requires the shard job, the shard spec bytes and
// the grid fingerprint to be encoding/json's, errors included, and the
// spec reader to read the spec bytes back as json.Unmarshal does.
func checkShardSpecCodec(t *testing.T, sh *ShardSpec, timeoutMs int64) {
	t.Helper()
	job, err := EncodeShardJob(sh, timeoutMs)
	want, wantErr := json.Marshal(jobEnvelope{Kind: "shard", TimeoutMs: timeoutMs, Shard: sh})
	if !bytes.Equal(job, want) || (err == nil) != (wantErr == nil) {
		t.Fatalf("EncodeShardJob = %q, %v; json.Marshal %q, %v", job, err, want, wantErr)
	}
	spec, specErr := json.Marshal(sh)
	if got, ok := AppendShardSpec([]byte("prefix"), sh); ok != (specErr == nil) || (ok && string(got) != "prefix"+string(spec)) {
		t.Fatalf("AppendShardSpec = %q, %v; json.Marshal %q, %v", got, ok, spec, specErr)
	}
	if specErr == nil {
		checkShardSpecReader(t, spec)
	}
	fp, err := sh.Grid.Fingerprint()
	refFP, refErr := reflectiveFingerprint(sh.Grid)
	if fp != refFP || fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("Fingerprint(%+v) = %s, %v; reflective %s, %v", sh.Grid, fp, err, refFP, refErr)
	}
}

// checkShardSpecReader requires every shard spec the canonical reader
// accepts to be the one json.Unmarshal decodes, -0 included.
func checkShardSpecReader(t *testing.T, raw []byte) {
	t.Helper()
	r := canonjson.NewReader(string(raw))
	fast := ReadShardSpec(&r)
	if r.End(); !r.OK() {
		return
	}
	var ref ShardSpec
	err := json.Unmarshal(raw, &ref)
	a, _ := json.Marshal(fast)
	b, _ := json.Marshal(&ref)
	if err != nil || !reflect.DeepEqual(*fast, ref) || !bytes.Equal(a, b) {
		t.Fatalf("canonical read of %q = %+v; json.Unmarshal = %+v, %v", raw, *fast, ref, err)
	}
}

// checkRowParser requires the row parser to agree with json.Unmarshal
// on raw, both on its canonical path and through decodeRow.
func checkRowParser(t *testing.T, raw []byte) {
	t.Helper()
	var ref Row
	refErr := json.Unmarshal(raw, &ref)
	r := canonjson.NewReader(string(raw))
	fast := readRow(&r)
	if r.End(); r.OK() && (refErr != nil || fast != ref) {
		t.Fatalf("canonical parse of %q = %+v; json.Unmarshal = %+v, %v", raw, fast, ref, refErr)
	}
	got, err := decodeRow(raw)
	if (err == nil) != (refErr == nil) || got != ref {
		t.Fatalf("decodeRow(%q) = %+v, %v; json.Unmarshal = %+v, %v", raw, got, err, ref, refErr)
	}
}

// servedArtifact is a shard result's artifact as bcnd serves it: the
// serve.Artifact envelope, marshaled in its field order.
func servedArtifact(t testing.TB, res *ShardResult) []byte {
	raw, err := json.Marshal(struct {
		Key        string       `json:"key"`
		Kind       string       `json:"kind"`
		Invariants string       `json:"invariants"`
		Shard      *ShardResult `json:"shard"`
	}{"0f3c", "shard", "off", res})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// wireShard evaluates one signed 32-row analytic shard and its served
// artifact.
func wireShard(t testing.TB) (*ShardSpec, ShardResult, []byte) {
	g := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16}
	spec := &ShardSpec{Grid: g, Index: 3, Points: g.Points()[96:128]}
	res := ShardResult{Index: spec.Index, Rows: make([]Row, len(spec.Points))}
	if err := g.EvalBatch(context.Background(), spec.Points, res.Rows, EvalMetrics{}); err != nil {
		t.Fatal(err)
	}
	SignShardResult(&res)
	return spec, res, servedArtifact(t, &res)
}

// TestDecodeShardArtifactCanonical: a served artifact takes the
// canonical path and decodes to exactly the result that was signed.
func TestDecodeShardArtifactCanonical(t *testing.T) {
	spec, res, raw := wireShard(t)
	r := canonjson.NewReader(string(raw))
	readArtifact(&r, len(spec.Points))
	if r.End(); !r.OK() {
		t.Fatalf("served artifact left the canonical path at byte %d: %.40q", r.Offset(), raw[r.Offset():])
	}
	got, err := DecodeShardArtifact(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decoded %+v, signed %+v", got, res)
	}
	if err := VerifyShardResult(got); err != nil {
		t.Fatal(err)
	}
}

// TestShardWireAllocs is the shard wire's allocation gate, in the
// style of TestEvalBatchAllocs: for a signed 32-row shard, verification
// builds every row's journal record in one buffer, decoding copies the
// artifact once and sizes its
// slices from the assignment, signing allocates one checksum per row,
// and planning allocates one key per point.
func TestShardWireAllocs(t *testing.T) {
	spec, res, raw := wireShard(t)
	rows := len(res.Rows)
	for _, tc := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"VerifyShardResult", 2, func() {
			if err := VerifyShardResult(res); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeShardArtifact", 4, func() {
			if _, err := DecodeShardArtifact(raw, spec); err != nil {
				t.Fatal(err)
			}
		}},
		{"SignShardResult", float64(rows + 3), func() {
			signed := ShardResult{Index: res.Index, Rows: res.Rows}
			SignShardResult(&signed)
		}},
		{"PlanShards", 16*16 + 48, func() {
			if _, _, _, err := PlanShards(spec.Grid, DefaultShardSize); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		avg := testing.AllocsPerRun(20, tc.run)
		t.Logf("%s: %.1f allocations", tc.name, avg)
		if avg > tc.limit {
			t.Errorf("%s allocates %.1f times, want <= %.0f", tc.name, avg, tc.limit)
		}
	}
}

// BenchmarkShardWire is the coordinator's per-shard wire cost for one
// signed 32-row shard: the worker's signature, then the coordinator's
// artifact decode and the verification that also builds the journal
// records.
func BenchmarkShardWire(b *testing.B) {
	spec, res, raw := wireShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signed := ShardResult{Index: res.Index, Rows: res.Rows}
		SignShardResult(&signed)
		got, err := DecodeShardArtifact(raw, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := verifyShard(&got); err != nil {
			b.Fatal(err)
		}
		benchRecords = got.records
	}
}

var benchRecords [][]byte

// BenchmarkPlanShards plans the 16×16 paper grid into eight 32-point
// shards, the shard of DESIGN.md's 32-row tables, whatever the default
// size: fingerprint, enumeration and one journal key per point.
func BenchmarkPlanShards(b *testing.B) {
	g := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, benchShards, _ = PlanShards(g, 32); len(benchShards) != 8 {
			b.Fatalf("%d shards, want 8", len(benchShards))
		}
	}
}

var benchShards []Shard
