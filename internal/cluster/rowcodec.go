package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"bcnphase/internal/canonjson"
	"bcnphase/internal/runstate"
	"bcnphase/internal/sweep"
)

// The cluster's wire JSON — row checksums, point keys, journal
// records, grid fingerprints, the shard jobs the coordinator posts and
// the shard artifacts workers send back — goes through the canonical
// codec (internal/canonjson) instead of reflective encoding/json. The
// encoders' output is byte-identical to json.Marshal of the same value
// (FuzzRowCodec holds the two together), so every checksum, key and
// journal record keeps the bytes it has always had. The readers read
// exactly that canonical form; the first byte they do not expect hands
// the whole input to encoding/json, so the inputs accepted, the values
// decoded and the errors returned are encoding/json's.

// appendRowJSON appends json.Marshal(r)'s bytes: the journal record of
// a row and the input of its checksum.
func appendRowJSON(b []byte, r *Row) []byte {
	b = append(b, `{"CSV":`...)
	b = canonjson.AppendString(b, r.CSV)
	b = append(b, `,"Violations":`...)
	b = strconv.AppendUint(b, r.Violations, 10)
	b = append(b, `,"FirstPred":`...)
	b = canonjson.AppendString(b, r.FirstPred)
	return append(b, '}')
}

// rowJSONLen is a capacity hint for one row's JSON: the field names and
// punctuation, a 20-digit count, and both strings unescaped.
func rowJSONLen(r *Row) int {
	return len(`{"CSV":"","Violations":,"FirstPred":""}`) + 20 + len(r.CSV) + len(r.FirstPred)
}

// shardDigestSum hashes the parts "shard:<index>", rowSums[0], … with
// each part prefixed by its length as a big-endian uint64, so part
// boundaries cannot shift without changing the digest. The buffer stays
// on the stack for shards of up to 32 rows.
func shardDigestSum(index int, rowSums []string) [sha256.Size]byte {
	var stack [2560]byte
	b := strconv.AppendInt(append(stack[:8], "shard:"...), int64(index), 10)
	binary.BigEndian.PutUint64(b, uint64(len(b)-8))
	for _, s := range rowSums {
		b = binary.BigEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	return sha256.Sum256(b)
}

// hexEqual reports whether s is the lowercase hex spelling of sum,
// without building that spelling as a string.
func hexEqual(sum [sha256.Size]byte, s string) bool {
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:]) == s
}

// readRow reads one Row.
func readRow(r *canonjson.Reader) Row {
	var row Row
	r.Lit(`{"CSV":`)
	row.CSV = r.Str()
	r.Lit(`,"Violations":`)
	row.Violations = r.Uint()
	r.Lit(`,"FirstPred":`)
	row.FirstPred = r.Str()
	r.Lit(`}`)
	return row
}

// AppendShardResult appends json.Marshal(res)'s bytes: the shard body
// of a worker's artifact.
func AppendShardResult(b []byte, res *ShardResult) []byte {
	b = strconv.AppendInt(append(b, `{"index":`...), int64(res.Index), 10)
	b = append(b, `,"rows":`...)
	if res.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range res.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRowJSON(b, &res.Rows[i])
		}
		b = append(b, ']')
	}
	if len(res.RowSums) > 0 {
		b = append(b, `,"row_sums":[`...)
		for i, sum := range res.RowSums {
			if i > 0 {
				b = append(b, ',')
			}
			b = canonjson.AppendString(b, sum)
		}
		b = append(b, ']')
	}
	if res.Digest != "" {
		b = canonjson.AppendString(append(b, `,"digest":`...), res.Digest)
	}
	return append(b, '}')
}

// readArtifact reads a shard artifact envelope: key, kind, invariant
// policy and the shard result, in serve.Artifact's field order. Rows
// and checksums are sized for want points.
func readArtifact(r *canonjson.Reader, want int) shardArtifact {
	var art shardArtifact
	res := &ShardResult{}
	r.Lit(`{"key":`)
	art.Key = r.Str()
	r.Lit(`,"kind":`)
	art.Kind = r.Str()
	r.Lit(`,"invariants":`)
	r.Str()
	r.Lit(`,"shard":{"index":`)
	res.Index = int(r.Int(strconv.IntSize))
	r.Lit(`,"rows":[`)
	res.Rows = make([]Row, 0, want)
	if !r.Opt(`]`) {
		for {
			res.Rows = append(res.Rows, readRow(r))
			if !r.Opt(`,`) {
				break
			}
		}
		r.Lit(`]`)
	}
	if r.Opt(`,"row_sums":[`) {
		res.RowSums = make([]string, 0, want)
		if !r.Opt(`]`) {
			for {
				res.RowSums = append(res.RowSums, r.Str())
				if !r.Opt(`,`) {
					break
				}
			}
			r.Lit(`]`)
		}
	}
	if r.Opt(`,"digest":`) {
		res.Digest = r.Str()
	}
	r.Lit(`}}`)
	art.Shard = res
	return art
}

// decodeRow decodes one journaled row: its canonical form directly,
// anything else through json.Unmarshal.
func decodeRow(raw []byte) (Row, error) {
	r := canonjson.NewReader(string(raw))
	row := readRow(&r)
	if r.End(); r.OK() {
		return row, nil
	}
	var ref Row
	err := json.Unmarshal(raw, &ref)
	return ref, err
}

// journaledRow decodes a journaled point value and reports whether it
// is a row worth replaying: one that decodes and renders a CSV line.
// Anything else (`{}`, `null`, a row of another shape) is re-evaluated
// and superseded. It is the one replay rule of both journal writers,
// RunJournaled and the coordinator.
func journaledRow(raw []byte) (Row, bool) {
	row, err := decodeRow(raw)
	return row, err == nil && row.CSV != ""
}

// RunJournaled is sweep.RunBatched with crash-safe resume through j;
// with a nil j it is sweep.RunBatched. Each point is keyed by PointKey
// under the grid's fingerprint, the coordinator's keys. A point whose
// key holds a replayable row (journaledRow) is not evaluated: its row
// comes back with Result.Cached set and counts in Metrics.Replayed. The
// rest run in spans of at most span points, and a span counts as done
// only once its rows, in appendRowJSON's bytes, are recorded in one
// j.RecordBatch; a failed record fails the whole span. A resumed run
// thus re-pays at most the spans in flight at the cut: workers × span
// points.
func (g *GainGrid) RunJournaled(ctx context.Context, points []GainPoint, span int, fn sweep.BatchFunc[GainPoint, Row], opts sweep.Options, j *runstate.Journal) ([]sweep.Result[GainPoint, Row], error) {
	if j == nil {
		return sweep.RunBatched(ctx, points, span, fn, opts)
	}
	if fn == nil {
		return nil, fmt.Errorf("cluster: nil batch evaluation function")
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	results := make([]sweep.Result[GainPoint, Row], len(points))
	keys := make([]string, len(points))
	var todo []int
	for i, pt := range points {
		keys[i] = PointKey(fp, pt)
		if raw, ok := j.Lookup(keys[i]); ok {
			if row, ok := journaledRow(raw); ok {
				results[i] = sweep.Result[GainPoint, Row]{Point: pt, Value: row, Cached: true}
				if opts.Metrics != nil {
					opts.Metrics.Replayed.Inc()
				}
				continue
			}
		}
		todo = append(todo, i)
	}
	// The spans run over todo, the indices of the points to evaluate.
	inner, err := sweep.RunBatched(ctx, todo, span, func(ctx context.Context, idx []int, out []Row) error {
		pts, spanKeys := make([]GainPoint, len(idx)), make([]string, len(idx))
		for k, i := range idx {
			pts[k], spanKeys[k] = points[i], keys[i]
		}
		if err := fn(ctx, pts, out); err != nil {
			return err
		}
		n := 0
		for k := range out {
			n += rowJSONLen(&out[k])
		}
		buf, vals := make([]byte, 0, n), make([][]byte, len(out))
		for k := range out {
			at := len(buf)
			buf = appendRowJSON(buf, &out[k])
			vals[k] = buf[at:len(buf):len(buf)]
		}
		began := time.Now()
		err := j.RecordBatch(spanKeys, vals)
		if opts.Metrics != nil {
			opts.Metrics.CheckpointSeconds.Observe(time.Since(began).Seconds())
		}
		if err != nil {
			return fmt.Errorf("cluster: journal span: %w", err)
		}
		return nil
	}, opts)
	for _, r := range inner {
		results[r.Point] = sweep.Result[GainPoint, Row]{
			Point:    points[r.Point],
			Value:    r.Value,
			Err:      r.Err,
			Attempts: r.Attempts,
		}
	}
	return results, err
}

// decodeArtifact decodes a worker's shard artifact envelope: its
// canonical form directly, anything else through json.Unmarshal.
func decodeArtifact(raw []byte, want int) (shardArtifact, error) {
	r := canonjson.NewReader(string(raw))
	art := readArtifact(&r, want)
	if r.End(); r.OK() {
		return art, nil
	}
	var ref shardArtifact
	err := json.Unmarshal(raw, &ref)
	return ref, err
}

// finite reports whether every float of the grid has a JSON spelling.
func (g *GainGrid) finite() bool {
	return canonjson.Finite(g.BOverQ0) && canonjson.Finite(g.GiLo) && canonjson.Finite(g.GiHi) &&
		canonjson.Finite(g.GdLo) && canonjson.Finite(g.GdHi)
}

// appendGainGrid appends json.Marshal(g)'s bytes for a finite grid.
func appendGainGrid(b []byte, g *GainGrid) []byte {
	b = canonjson.AppendFloat(append(b, `{"b_over_q0":`...), g.BOverQ0)
	b = canonjson.AppendFloat(append(b, `,"gi_lo":`...), g.GiLo)
	b = canonjson.AppendFloat(append(b, `,"gi_hi":`...), g.GiHi)
	b = canonjson.AppendFloat(append(b, `,"gd_lo":`...), g.GdLo)
	b = canonjson.AppendFloat(append(b, `,"gd_hi":`...), g.GdHi)
	b = strconv.AppendInt(append(b, `,"steps":`...), int64(g.Steps), 10)
	if g.Invariants != "" {
		b = canonjson.AppendString(append(b, `,"invariants":`...), g.Invariants)
	}
	return append(b, '}')
}

// readGainGrid reads a grid in appendGainGrid's form. Its names are
// read as Enums, so a kept grid does not keep the message it came in.
func readGainGrid(r *canonjson.Reader, g *GainGrid) {
	r.Lit(`{"b_over_q0":`)
	g.BOverQ0 = r.Float()
	r.Lit(`,"gi_lo":`)
	g.GiLo = r.Float()
	r.Lit(`,"gi_hi":`)
	g.GiHi = r.Float()
	r.Lit(`,"gd_lo":`)
	g.GdLo = r.Float()
	r.Lit(`,"gd_hi":`)
	g.GdHi = r.Float()
	r.Lit(`,"steps":`)
	g.Steps = int(r.Int(strconv.IntSize))
	if r.Opt(`,"invariants":`) {
		g.Invariants = r.Enum("off", "record", "strict", "clamp")
	}
	r.Lit(`}`)
}

// AppendShardSpec appends json.Marshal(s)'s bytes. ok is false, and b
// comes back unchanged, when a gain has no JSON spelling — the values
// json.Marshal fails on.
func AppendShardSpec(b []byte, s *ShardSpec) (_ []byte, ok bool) {
	if !s.Grid.finite() {
		return b, false
	}
	for _, pt := range s.Points {
		if !canonjson.Finite(pt.Gi) || !canonjson.Finite(pt.Gd) {
			return b, false
		}
	}
	b = appendGainGrid(append(b, `{"grid":`...), &s.Grid)
	b = strconv.AppendInt(append(b, `,"index":`...), int64(s.Index), 10)
	b = append(b, `,"points":`...)
	if s.Points == nil {
		return append(b, "null}"...), true
	}
	// Points come in grid order, as in EvalBatch: a point's Gi is
	// usually the previous point's, and its Gd that of the point one
	// grid row (Steps points) back. Repeated text is copied, not
	// formatted again; gdText[i%steps] spans point i-steps's Gd.
	steps := gridRow(&s.Grid)
	var giText [2]int
	var gdText [MaxClusterSteps][2]int
	b = append(b, '[')
	for i, pt := range s.Points {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"gi":`...)
		if i > 0 && math.Float64bits(pt.Gi) == math.Float64bits(s.Points[i-1].Gi) {
			b = append(b, b[giText[0]:giText[1]]...)
		} else {
			at := len(b)
			b = canonjson.AppendFloat(b, pt.Gi)
			giText = [2]int{at, len(b)}
		}
		b = append(b, `,"gd":`...)
		at := len(b)
		if j := i - steps; steps > 0 && j >= 0 && math.Float64bits(pt.Gd) == math.Float64bits(s.Points[j].Gd) {
			b = append(b, b[gdText[i%steps][0]:gdText[i%steps][1]]...)
		} else {
			b = canonjson.AppendFloat(b, pt.Gd)
		}
		if steps > 0 {
			gdText[i%steps] = [2]int{at, len(b)}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), true
}

// gridRow is the grid's row length when a shard codec can remember a
// whole row of Gd values (at most MaxClusterSteps), and 0 otherwise.
func gridRow(g *GainGrid) int {
	if g.Steps > 0 && g.Steps <= MaxClusterSteps {
		return g.Steps
	}
	return 0
}

// shardSpecLen is a capacity hint for a shard spec's JSON: the grid and
// two shortest-form floats per point.
func shardSpecLen(s *ShardSpec) int {
	return 256 + len(s.Grid.Invariants) + 56*len(s.Points)
}

// ReadShardSpec reads a shard spec in AppendShardSpec's form. An empty
// point list reads as an empty, non-nil slice, as encoding/json decodes
// it.
func ReadShardSpec(r *canonjson.Reader) *ShardSpec {
	s := &ShardSpec{}
	r.Lit(`{"grid":`)
	readGainGrid(r, &s.Grid)
	r.Lit(`,"index":`)
	s.Index = int(r.Int(strconv.IntSize))
	r.Lit(`,"points":[`)
	s.Points = make([]GainPoint, 0, DefaultShardSize)
	if !r.Opt(`]`) {
		// Repeated literals are converted once, on AppendShardSpec's
		// pattern: Gi against the previous point, Gd against the point
		// one grid row back, whose literal is gdLit[i%steps].
		steps := gridRow(&s.Grid)
		var giLit string
		var gdLit [MaxClusterSteps]string
		for i := 0; ; i++ {
			var pt GainPoint
			var prev GainPoint
			if i > 0 {
				prev = s.Points[i-1]
			}
			r.Lit(`{"gi":`)
			pt.Gi, giLit = r.FloatSame(giLit, prev.Gi)
			r.Lit(`,"gd":`)
			var lit string
			if j := i - steps; steps > 0 && j >= 0 {
				pt.Gd, lit = r.FloatSame(gdLit[i%steps], s.Points[j].Gd)
			} else {
				pt.Gd, lit = r.FloatSame("", 0)
			}
			if steps > 0 {
				gdLit[i%steps] = lit
			}
			r.Lit(`}`)
			s.Points = append(s.Points, pt)
			if !r.Opt(`,`) {
				break
			}
		}
		r.Lit(`]`)
	}
	r.Lit(`}`)
	return s
}

// appendGridIdentity appends json.Marshal(id)'s bytes for a finite
// identity.
func appendGridIdentity(b []byte, id *gridIdentity) []byte {
	b = canonjson.AppendString(append(b, `{"Experiment":`...), id.Experiment)
	b = strconv.AppendInt(append(b, `,"Format":`...), int64(id.Format), 10)
	b = canonjson.AppendFloat(append(b, `,"BOverQ0":`...), id.BOverQ0)
	b = canonjson.AppendFloat(append(b, `,"GiLo":`...), id.GiLo)
	b = canonjson.AppendFloat(append(b, `,"GiHi":`...), id.GiHi)
	b = canonjson.AppendFloat(append(b, `,"GdLo":`...), id.GdLo)
	b = canonjson.AppendFloat(append(b, `,"GdHi":`...), id.GdHi)
	b = strconv.AppendInt(append(b, `,"Steps":`...), int64(id.Steps), 10)
	b = canonjson.AppendString(append(b, `,"Invariants":`...), id.Invariants)
	return append(b, '}')
}
