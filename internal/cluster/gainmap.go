package cluster

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"bcnphase/internal/analytic"
	"bcnphase/internal/canonjson"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/linear"
	"bcnphase/internal/runstate"
)

// GainGrid describes one gain-plane sweep: the geometric (Gi, Gd) grid
// cmd/bcnsweep evaluates, plus the invariant policy that shapes every
// row. It is also the coordinator's submit wire message (POST
// /v1/sweeps). The JSON field names match serve.SweepSpec so operators
// write one request shape everywhere.
type GainGrid struct {
	// BOverQ0 sets the buffer as a multiple of q0 (must leave B > q0).
	BOverQ0 float64 `json:"b_over_q0"`
	// GiLo, GiHi, GdLo, GdHi bound the geometric gain axes.
	GiLo float64 `json:"gi_lo"`
	GiHi float64 `json:"gi_hi"`
	GdLo float64 `json:"gd_lo"`
	GdHi float64 `json:"gd_hi"`
	// Steps is the per-axis resolution (Steps² grid points).
	Steps int `json:"steps"`
	// Invariants is the runtime invariant policy applied to every point
	// ("off", "record", "strict", "clamp"); empty means off. It is part
	// of the grid's identity: rows computed under one policy must never
	// replay under another.
	Invariants string `json:"invariants,omitempty"`
}

// MaxClusterSteps caps the per-axis resolution a coordinator accepts
// over the wire (MaxClusterSteps² points). Local bcnsweep runs are not
// bound by it.
const MaxClusterSteps = 64

// GainPoint is one (Gi, Gd) grid point.
type GainPoint struct {
	Gi float64 `json:"gi"`
	Gd float64 `json:"gd"`
}

// Row is one evaluated grid point. The exported field names are frozen:
// they are the JSON shape of both the shard result envelope and the
// journal records, which appendRowJSON writes and journaledRow replays
// for the coordinator and RunJournaled (cmd/bcnsweep -resume) alike,
// so their journals are interchangeable (TestJournalsInterchangeable).
type Row struct {
	// CSV is the rendered output line, without its newline. The rows
	// one EvalBatch span renders share backing storage: each CSV is a
	// substring of one span-wide string, so keeping any row of a span
	// keeps the whole span's text alive.
	CSV string
	// Violations and FirstPred summarize the point's runtime invariant
	// tallies for sweep-level aggregation.
	Violations uint64
	FirstPred  string
}

// InvariantViolations implements sweep.InvariantReporter.
func (r Row) InvariantViolations() (uint64, string) { return r.Violations, r.FirstPred }

// CSVHeader is the map.csv header row. RenderCSV writes it for every
// map: bcnsweep's local run and the coordinator's merge alike.
const CSVHeader = "gi,gd,case,linear_stable,theorem1_ok,theorem1_bound_bits,outcome,strongly_stable,max_q_bits,rho,violations,first_violation"

// gridIdentity fingerprints everything that shapes a row's value. The
// struct (field names, order, values) is byte-compatible with the
// sweepIdentity cmd/bcnsweep has hashed since format 2, so grids keep
// their journal keys no matter which side of the cluster evaluates
// them. Execution knobs (workers, shard size, timeouts) are
// deliberately excluded — they do not affect results.
type gridIdentity struct {
	Experiment string
	Format     int // bump when the CSV row layout changes
	BOverQ0    float64
	GiLo, GiHi float64
	GdLo, GdHi float64
	Steps      int
	Invariants string
}

// Validate checks the grid's structural and physical feasibility.
func (g GainGrid) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("cluster: grid: %s", fmt.Sprintf(format, args...))
	}
	if g.Steps < 2 {
		return fail("steps=%d must be >= 2", g.Steps)
	}
	for _, b := range []struct {
		name string
		v    float64
	}{
		{"b_over_q0", g.BOverQ0},
		{"gi_lo", g.GiLo}, {"gi_hi", g.GiHi},
		{"gd_lo", g.GdLo}, {"gd_hi", g.GdHi},
	} {
		if math.IsNaN(b.v) || math.IsInf(b.v, 0) || b.v <= 0 {
			return fail("%s=%v must be positive and finite", b.name, b.v)
		}
	}
	if g.BOverQ0 <= 1 {
		return fail("b_over_q0=%v leaves B <= q0", g.BOverQ0)
	}
	if _, err := invariant.ParsePolicy(g.Invariants); err != nil {
		return fail("%v", err)
	}
	return nil
}

// Policy returns the grid's parsed invariant policy (Off for empty).
// The grid must have passed Validate.
func (g GainGrid) Policy() invariant.Policy {
	pol, _ := invariant.ParsePolicy(g.Invariants)
	return pol
}

// Base materializes the shared parameter set every point perturbs: the
// figure example with the grid's buffer multiple, exactly as
// cmd/bcnsweep builds it.
func (g GainGrid) Base() core.Params {
	p := core.FigureExample()
	p.B = g.BOverQ0 * p.Q0
	return p
}

// Points enumerates the grid in row-major order (all Gd values for the
// first Gi, then the next Gi) — the order map.csv rows appear in.
func (g GainGrid) Points() []GainPoint {
	pts := make([]GainPoint, 0, g.Steps*g.Steps)
	for i := 0; i < g.Steps; i++ {
		gi := geomAt(g.GiLo, g.GiHi, i, g.Steps)
		for j := 0; j < g.Steps; j++ {
			// Each axis value is computed once: later rows take their
			// Gd from the first row.
			pt := GainPoint{Gi: gi}
			if i == 0 {
				pt.Gd = geomAt(g.GdLo, g.GdHi, j, g.Steps)
			} else {
				pt.Gd = pts[j].Gd
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// Fingerprint is the grid's identity hash: the root of every point and
// shard key. A journal written for one fingerprint can never poison a
// run with another (stale-journal guard).
func (g GainGrid) Fingerprint() (string, error) {
	pol, err := invariant.ParsePolicy(g.Invariants)
	if err != nil {
		return "", fmt.Errorf("cluster: %v", err)
	}
	id := gridIdentity{
		Experiment: "bcnsweep/gainmap",
		// Format 3: rows may come from the analytic engine (exact extrema
		// in max_q_bits), so the engine mode joins the identity and every
		// pre-engine journal key is retired.
		// Format 4: checked rows come from the analytic engine too, with
		// violations counted at exact knots instead of polyline samples,
		// and analytic=off means RK45; no sampled row replays as a
		// knot-checked one.
		// Format 5: the analytic knob is gone (every row stitches
		// closed-form arcs), so the engine mode leaves the identity and
		// no RK45 row replays as a closed-form one.
		// Format 6: a wall hit stops the trajectory on the wall, so an
		// overflow row's max_q_bits is q0 + (B − q0) exactly, not the
		// queue at a bisected wall time.
		Format:  6,
		BOverQ0: g.BOverQ0,
		GiLo:    g.GiLo, GiHi: g.GiHi,
		GdLo: g.GdLo, GdHi: g.GdHi,
		Steps:      g.Steps,
		Invariants: pol.String(),
	}
	if !g.finite() {
		// No JSON spelling: encoding/json names the failure.
		return runstate.HashJSON(id)
	}
	var buf [320]byte
	return canonjson.Hash(appendGridIdentity(buf[:0], &id)), nil
}

// PointKey is the journal key of one grid point under the grid
// fingerprint — the same content key cmd/bcnsweep journals rows under.
// It is the hex SHA-256 of {"FP":…,"Gi":…,"Gd":…} exactly as
// runstate.HashJSON has always spelled it. A non-finite gain has no
// JSON spelling; its key fails closed as a cache miss.
func PointKey(fingerprint string, pt GainPoint) string {
	if math.IsNaN(pt.Gi) || math.IsInf(pt.Gi, 0) || math.IsNaN(pt.Gd) || math.IsInf(pt.Gd, 0) {
		return fmt.Sprintf("unhashable:%g,%g", pt.Gi, pt.Gd)
	}
	var buf [160]byte
	b := append(buf[:0], `{"FP":`...)
	b = canonjson.AppendString(b, fingerprint)
	b = canonjson.AppendFloat(append(b, `,"Gi":`...), pt.Gi)
	b = canonjson.AppendFloat(append(b, `,"Gd":`...), pt.Gd)
	return canonjson.Hash(append(b, '}'))
}

// EvalMetrics bundles the instruments a row evaluation may touch. The
// zero value is inert.
type EvalMetrics struct {
	// Solve is kept for callers that still set it; no row reads it,
	// since no row comes from core.Solve.
	Solve *core.SolveMetrics
	// Analytic instruments the row engine.
	Analytic *analytic.Metrics
}

// verdict is one grid point's map.csv columns, in header order
// (strongly_stable derives from outcome), rendered by appendAxis for
// each gain and then appendVerdict.
type verdict struct {
	gi, gd        float64
	kind          core.CaseKind
	linearStable  bool
	theorem1OK    bool
	theorem1Bound float64
	outcome       core.Outcome
	maxQueue, rho float64
	violations    uint64
	firstPred     string
}

// maxAnalyticRowLen bounds one row: five shortest-form floats of at
// most 24 bytes ("-2.2250738585072014e-308"), a case number, three
// bools, the longest outcome name, a 20-digit violation count, the
// longest predicate core's guard reports and eleven commas. EvalBatch
// sizes its span buffer with it so the buffer never regrows.
const maxAnalyticRowLen = 5*24 + 20 + 3*len("false") + len("horizon reached") + 20 + len(core.PredMonotoneTime) + 11

// appendAxis appends one gain column and its comma: the "gi," or "gd,"
// that opens a row. With appendVerdict it writes a map.csv row (no
// trailing newline). Every float is strconv's shortest 'g' form, written
// by canonjson.AppendG, which is exactly what fmt's %g prints, so rows
// keep the bytes of the fmt layout
// "%g,%g,%d,%v,%v,%g,%s,%v,%g,%g,%d,%s" that existing journals, shard
// digests and golden maps hold (FuzzAppendRow pins the two together),
// without boxing twelve arguments per row.
func appendAxis(b []byte, gain float64) []byte {
	return append(canonjson.AppendG(b, gain), ',')
}

// appendVerdict appends the row after its two gain columns.
func (v *verdict) appendVerdict(b []byte) []byte {
	b = strconv.AppendInt(b, int64(v.kind), 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, v.linearStable)
	b = append(b, ',')
	b = strconv.AppendBool(b, v.theorem1OK)
	b = append(b, ',')
	b = canonjson.AppendG(b, v.theorem1Bound)
	b = append(b, ',')
	b = append(b, v.outcome.String()...)
	b = append(b, ',')
	b = strconv.AppendBool(b, v.outcome.StronglyStable())
	b = append(b, ',')
	b = canonjson.AppendG(b, v.maxQueue)
	b = append(b, ',')
	b = canonjson.AppendG(b, v.rho)
	b = append(b, ',')
	b = strconv.AppendUint(b, v.violations, 10)
	b = append(b, ',')
	return append(b, v.firstPred...)
}

// Eval evaluates one grid point to its CSV row: the linear criterion of
// [4], the Theorem 1 sufficient condition, and the phase-plane ground
// truth. It is EvalBatch on a one-point span, so its row is
// byte-identical to the batch's.
func (g GainGrid) Eval(ctx context.Context, pt GainPoint, m EvalMetrics) (Row, error) {
	var out [1]Row
	err := g.EvalBatch(ctx, []GainPoint{pt}, out[:], m)
	return out[0], err
}

// analyticVerdict assembles one closed-form verdict. The linear columns
// are computed directly: LinearStable is the pure Routh–Hurwitz
// criterion of [4] (no trajectory needed) and Theorem1OK the paper's
// closed-form sufficient condition — exactly the values linear.Compare
// reports, without its second solve.
func analyticVerdict(p *core.Params, pt GainPoint, res *analytic.Result, chk *invariant.Checker) verdict {
	bound := p.Theorem1Bound()
	return verdict{
		gi: pt.Gi, gd: pt.Gd, kind: p.Case(),
		linearStable:  linear.Stable(p),
		theorem1OK:    bound < p.B, // core.Theorem1Satisfied
		theorem1Bound: bound,
		outcome:       res.Outcome,
		maxQueue:      p.Queue(res.MaxX), rho: res.Rho,
		violations: chk.Violations(), firstPred: chk.FirstPredicate(),
	}
}

// spanSolvers lends EvalBatch a warm Solver per span, so the regime
// shapes it memoises carry from one span to the next. The memo is keyed
// on exact bits, so a reused Solver writes the rows a fresh one would.
var spanSolvers = sync.Pool{New: func() any { return analytic.NewSolver() }}

// cancelEvery is how many points EvalBatch evaluates between two
// checks of its context: a cancelled span writes at most this many rows
// after the cancel.
const cancelEvery = 8

// rowMark records where one row starts in EvalBatch's span buffer and
// where its "gi," text, its "gd," text and the row itself end.
type rowMark struct{ start, gi, gd, end int }

// EvalBatch evaluates a contiguous span of grid points, writing the row
// of pts[i] into out[i] (len(out) must equal len(pts)). It is the single
// canonical row evaluation — bcnsweep, the shard and sweep executors in
// internal/serve, and the chaos tests all reach it, which is what makes
// "byte-identical to a single-node run" a property instead of a hope.
// It is sweep.BatchFunc compatible.
//
// Every row comes from one warm analytic.Solver, pooled across spans,
// under every invariant policy: a non-off policy attaches one checker,
// Reset per point, whose guard runs at the trajectory's exact knots and
// whose tallies fill the violations and first_violation columns. A strict violation aborts the
// span with the *invariant.InvariantError. Engine metrics are folded
// into one analytic.Tally and flushed once per span, also when the
// span aborts.
//
// Every row of the span is appended into one pre-sized buffer and
// converted to one string, so the span's Row.CSV values are substrings
// sharing that string's backing storage: a span costs a constant
// handful of allocations, not several per point. A row whose Gi has the
// bits of the previous row's copies that row's "gi," text instead of
// formatting it again, and a row whose Gd has the bits of the row
// g.Steps earlier (the same column of the previous grid row, in
// row-major order) copies its "gd," text. Matching on bits makes the
// copy exact for any point order.
func (g GainGrid) EvalBatch(ctx context.Context, pts []GainPoint, out []Row, m EvalMetrics) error {
	if len(out) != len(pts) {
		return fmt.Errorf("cluster: eval batch: %d outputs for %d points", len(out), len(pts))
	}
	var tally analytic.Tally
	defer tally.Flush(m.Analytic)
	s := spanSolvers.Get().(*analytic.Solver)
	defer spanSolvers.Put(s)
	chk := invariant.NewPolicy(g.Policy())
	opts := analytic.Options{Invariants: chk}
	p := g.Base()
	var res analytic.Result
	buf := make([]byte, 0, len(pts)*maxAnalyticRowLen)
	// marks records each row's offsets in buf; typical spans fit the
	// stack array.
	var markBuf [64]rowMark
	marks := markBuf[:0]
	if len(pts) > len(markBuf) {
		marks = make([]rowMark, 0, len(pts))
	}
	for i, pt := range pts {
		// ctx.Err takes a lock and a point costs about 2 µs, so the span
		// polls once per cancelEvery points.
		if i%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p.Gi, p.Gd = pt.Gi, pt.Gd
		chk.Reset()
		if err := s.Solve(&p, &opts, &res); err != nil {
			return err
		}
		tally.Fold(&res, opts.Mode)
		v := analyticVerdict(&p, pt, &res, chk)
		start := len(buf)
		if i > 0 && math.Float64bits(pt.Gi) == math.Float64bits(pts[i-1].Gi) {
			buf = append(buf, buf[marks[i-1].start:marks[i-1].gi]...)
		} else {
			buf = appendAxis(buf, pt.Gi)
		}
		gi := len(buf)
		if j := i - g.Steps; j >= 0 && j < i && math.Float64bits(pt.Gd) == math.Float64bits(pts[j].Gd) {
			buf = append(buf, buf[marks[j].gi:marks[j].gd]...)
		} else {
			buf = appendAxis(buf, pt.Gd)
		}
		gd := len(buf)
		buf = v.appendVerdict(buf)
		marks = append(marks, rowMark{start, gi, gd, len(buf)})
		out[i] = Row{Violations: v.violations, FirstPred: v.firstPred}
	}
	rows := string(buf)
	for i, mk := range marks {
		out[i].CSV = rows[mk.start:mk.end]
	}
	return nil
}

// RenderCSV assembles the merged map.csv from rows in grid order: the
// header and every row, each newline-terminated, appended into one
// buffer sized up front.
func RenderCSV(rows []Row) []byte {
	n := len(CSVHeader) + 1
	for _, r := range rows {
		n += len(r.CSV) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, CSVHeader...)
	b = append(b, '\n')
	for _, r := range rows {
		b = append(b, r.CSV...)
		b = append(b, '\n')
	}
	return b
}

func geomAt(lo, hi float64, i, n int) float64 {
	f := float64(i) / float64(n-1)
	return lo * math.Pow(hi/lo, f)
}
