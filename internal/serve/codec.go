package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"bcnphase/internal/canonjson"
	"bcnphase/internal/cluster"
)

// The job round trip — the spec a client posts, the dedup key hashed
// from it and the artifact served for it — runs on the canonical codec
// (internal/canonjson) for solve, sweep and shard jobs. Every appender
// writes json.Marshal's bytes, so keys and artifacts are unchanged; the
// spec reader takes only json.Marshal's form of a spec and leaves
// anything else to encoding/json. netsim specs and artifacts stay on
// encoding/json throughout: their nested fault plan is rare on the hot
// path and not worth a second codec. FuzzSpecCodec holds all of it to
// encoding/json.

// readSpec decodes body when it is json.Marshal's form of a solve,
// sweep or shard spec followed by nothing but whitespace; ok is false
// for any other input. The spec's names are read as Enums: job spans
// keep them, and must not keep the body with them.
func readSpec(body []byte) (sp Spec, ok bool) {
	r := canonjson.NewReader(string(body))
	r.Lit(`{"kind":`)
	sp.Kind = r.Enum(KindSolve, KindSweep, KindShard)
	if r.Opt(`,"timeout_ms":`) {
		sp.TimeoutMs = r.Int(64)
	}
	if r.Opt(`,"invariants":`) {
		sp.Invariants = r.Enum("off", "record", "strict", "clamp")
	}
	if r.Opt(`,"solve":`) {
		sp.Solve = readSolveSpec(&r)
	}
	if r.Opt(`,"sweep":`) {
		sp.Sweep = readSweepSpec(&r)
	}
	if r.Opt(`,"shard":`) {
		sp.Shard = cluster.ReadShardSpec(&r)
	}
	r.Lit(`}`)
	r.End()
	return sp, r.OK()
}

func readSolveSpec(r *canonjson.Reader) *SolveSpec {
	s := &SolveSpec{}
	p := &s.Params
	r.Lit(`{"params":{"N":`)
	p.N = int(r.Int(strconv.IntSize))
	r.Lit(`,"C":`)
	p.C = r.Float()
	r.Lit(`,"Ru":`)
	p.Ru = r.Float()
	r.Lit(`,"Gi":`)
	p.Gi = r.Float()
	r.Lit(`,"Gd":`)
	p.Gd = r.Float()
	r.Lit(`,"W":`)
	p.W = r.Float()
	r.Lit(`,"Pm":`)
	p.Pm = r.Float()
	r.Lit(`,"Q0":`)
	p.Q0 = r.Float()
	r.Lit(`,"B":`)
	p.B = r.Float()
	r.Lit(`,"Qsc":`)
	p.Qsc = r.Float()
	r.Lit(`}`)
	if r.Opt(`,"start":[`) {
		var start [2]float64
		start[0] = r.Float()
		r.Lit(`,`)
		start[1] = r.Float()
		r.Lit(`]`)
		s.Start = &start
	}
	if r.Opt(`,"max_arcs":`) {
		s.MaxArcs = int(r.Int(strconv.IntSize))
	}
	r.Lit(`}`)
	return s
}

func readSweepSpec(r *canonjson.Reader) *SweepSpec {
	s := &SweepSpec{}
	r.Lit(`{"b_over_q0":`)
	s.BOverQ0 = r.Float()
	r.Lit(`,"gi_lo":`)
	s.GiLo = r.Float()
	r.Lit(`,"gi_hi":`)
	s.GiHi = r.Float()
	r.Lit(`,"gd_lo":`)
	s.GdLo = r.Float()
	r.Lit(`,"gd_hi":`)
	s.GdHi = r.Float()
	r.Lit(`,"steps":`)
	s.Steps = int(r.Int(strconv.IntSize))
	r.Lit(`}`)
	return s
}

// finite reports whether every float of the spec has a JSON spelling.
func (s *SolveSpec) finite() bool {
	p := &s.Params
	for _, v := range [...]float64{p.C, p.Ru, p.Gi, p.Gd, p.W, p.Pm, p.Q0, p.B, p.Qsc} {
		if !canonjson.Finite(v) {
			return false
		}
	}
	return s.Start == nil || (canonjson.Finite(s.Start[0]) && canonjson.Finite(s.Start[1]))
}

// appendSolveSpec appends json.Marshal(s)'s bytes for a finite spec.
func appendSolveSpec(b []byte, s *SolveSpec) []byte {
	p := &s.Params
	b = strconv.AppendInt(append(b, `{"params":{"N":`...), int64(p.N), 10)
	b = canonjson.AppendFloat(append(b, `,"C":`...), p.C)
	b = canonjson.AppendFloat(append(b, `,"Ru":`...), p.Ru)
	b = canonjson.AppendFloat(append(b, `,"Gi":`...), p.Gi)
	b = canonjson.AppendFloat(append(b, `,"Gd":`...), p.Gd)
	b = canonjson.AppendFloat(append(b, `,"W":`...), p.W)
	b = canonjson.AppendFloat(append(b, `,"Pm":`...), p.Pm)
	b = canonjson.AppendFloat(append(b, `,"Q0":`...), p.Q0)
	b = canonjson.AppendFloat(append(b, `,"B":`...), p.B)
	b = canonjson.AppendFloat(append(b, `,"Qsc":`...), p.Qsc)
	b = append(b, '}')
	if s.Start != nil {
		b = canonjson.AppendFloat(append(b, `,"start":[`...), s.Start[0])
		b = canonjson.AppendFloat(append(b, ','), s.Start[1])
		b = append(b, ']')
	}
	if s.MaxArcs != 0 {
		b = strconv.AppendInt(append(b, `,"max_arcs":`...), int64(s.MaxArcs), 10)
	}
	return append(b, '}')
}

// finite reports whether every float of the spec has a JSON spelling.
func (s *SweepSpec) finite() bool {
	return canonjson.Finite(s.BOverQ0) && canonjson.Finite(s.GiLo) && canonjson.Finite(s.GiHi) &&
		canonjson.Finite(s.GdLo) && canonjson.Finite(s.GdHi)
}

// appendSweepSpec appends json.Marshal(s)'s bytes for a finite spec.
func appendSweepSpec(b []byte, s *SweepSpec) []byte {
	b = canonjson.AppendFloat(append(b, `{"b_over_q0":`...), s.BOverQ0)
	b = canonjson.AppendFloat(append(b, `,"gi_lo":`...), s.GiLo)
	b = canonjson.AppendFloat(append(b, `,"gi_hi":`...), s.GiHi)
	b = canonjson.AppendFloat(append(b, `,"gd_lo":`...), s.GdLo)
	b = canonjson.AppendFloat(append(b, `,"gd_hi":`...), s.GdHi)
	b = strconv.AppendInt(append(b, `,"steps":`...), int64(s.Steps), 10)
	return append(b, '}')
}

// appendIdentity appends json.Marshal(id)'s bytes. ok is false for an
// identity with a netsim body or a float with no JSON spelling, which
// Key hashes through encoding/json instead.
func appendIdentity(b []byte, id *specIdentity) (_ []byte, ok bool) {
	if id.Netsim != nil || (id.Solve != nil && !id.Solve.finite()) || (id.Sweep != nil && !id.Sweep.finite()) {
		return b, false
	}
	b = strconv.AppendInt(append(b, `{"Format":`...), int64(id.Format), 10)
	b = canonjson.AppendString(append(b, `,"Kind":`...), id.Kind)
	b = canonjson.AppendString(append(b, `,"Invariants":`...), id.Invariants)
	b = append(b, `,"Solve":`...)
	if id.Solve == nil {
		b = append(b, "null"...)
	} else {
		b = appendSolveSpec(b, id.Solve)
	}
	b = append(b, `,"Sweep":`...)
	if id.Sweep == nil {
		b = append(b, "null"...)
	} else {
		b = appendSweepSpec(b, id.Sweep)
	}
	b = append(b, `,"Netsim":null`...)
	if id.Shard != nil {
		if b, ok = cluster.AppendShardSpec(append(b, `,"Shard":`...), id.Shard); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// encodeArtifact is json.Marshal(art): appended by the canonical codec
// for solve, sweep and shard artifacts, through encoding/json for
// netsim artifacts and for a solve result holding a value with no JSON
// spelling, so that one keeps encoding/json's error. The artifact is
// appended into a pooled buffer and copied out at its exact length, as
// json.Marshal does: the store keeps every artifact it is handed.
func encodeArtifact(art *Artifact) ([]byte, error) {
	buf := canonjson.Borrow()
	defer canonjson.Return(buf)
	if b, ok := appendArtifact(*buf, art); ok {
		*buf = b
		return bytes.Clone(b), nil
	}
	raw, err := json.Marshal(art)
	if err != nil {
		return nil, fmt.Errorf("serve: encode artifact: %w", err)
	}
	return raw, nil
}

// appendArtifact appends json.Marshal(art)'s bytes; ok is false, with
// b unchanged, for the artifacts encodeArtifact leaves to encoding/json.
func appendArtifact(b []byte, art *Artifact) (_ []byte, ok bool) {
	if art.Netsim != nil || (art.Solve != nil && !art.Solve.finite()) {
		return b, false
	}
	b = canonjson.AppendString(append(b, `{"key":`...), art.Key)
	b = canonjson.AppendString(append(b, `,"kind":`...), art.Kind)
	b = canonjson.AppendString(append(b, `,"invariants":`...), art.Invariants)
	if art.Solve != nil {
		b = appendSolveResult(append(b, `,"solve":`...), art.Solve)
	}
	if art.Sweep != nil {
		b = appendSweepResult(append(b, `,"sweep":`...), art.Sweep)
	}
	if art.Shard != nil {
		b = cluster.AppendShardResult(append(b, `,"shard":`...), art.Shard)
	}
	return append(b, '}'), true
}

// finite reports whether every float of the result has a JSON spelling.
func (s *SolveResult) finite() bool {
	return canonjson.Finite(s.Theorem1Bound) && canonjson.Finite(s.MaxQueueBits) &&
		canonjson.Finite(s.MinQueueBits) && canonjson.Finite(s.Rho)
}

// appendSolveResult appends json.Marshal(s)'s bytes for a finite result.
func appendSolveResult(b []byte, s *SolveResult) []byte {
	b = canonjson.AppendString(append(b, `{"case":`...), s.Case)
	b = canonjson.AppendString(append(b, `,"outcome":`...), s.Outcome)
	b = strconv.AppendBool(append(b, `,"strongly_stable":`...), s.StronglyStable)
	b = strconv.AppendBool(append(b, `,"linear_stable":`...), s.LinearStable)
	b = strconv.AppendBool(append(b, `,"theorem1_ok":`...), s.Theorem1OK)
	b = canonjson.AppendFloat(append(b, `,"theorem1_bound_bits":`...), s.Theorem1Bound)
	b = canonjson.AppendFloat(append(b, `,"max_queue_bits":`...), s.MaxQueueBits)
	b = canonjson.AppendFloat(append(b, `,"min_queue_bits":`...), s.MinQueueBits)
	b = canonjson.AppendFloat(append(b, `,"rho":`...), s.Rho)
	b = strconv.AppendInt(append(b, `,"crossings":`...), int64(s.Crossings), 10)
	b = strconv.AppendUint(append(b, `,"violations":`...), s.Violations, 10)
	if s.FirstViolation != "" {
		b = canonjson.AppendString(append(b, `,"first_violation":`...), s.FirstViolation)
	}
	if s.Engine != "" {
		b = canonjson.AppendString(append(b, `,"engine":`...), s.Engine)
	}
	return append(b, '}')
}

// appendSweepResult appends json.Marshal(s)'s bytes.
func appendSweepResult(b []byte, s *SweepResult) []byte {
	b = canonjson.AppendString(append(b, `{"header":`...), s.Header)
	b = append(b, `,"rows":`...)
	if s.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range s.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = canonjson.AppendString(b, row)
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"points":`...), int64(s.Points), 10)
	b = strconv.AppendInt(append(b, `,"failed":`...), int64(s.Failed), 10)
	b = strconv.AppendUint(append(b, `,"violations":`...), s.Violations, 10)
	return append(b, '}')
}
