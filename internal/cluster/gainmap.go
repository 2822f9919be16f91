package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"

	"bcnphase/internal/analytic"
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
	// Analytic selects the stepper of the row engine ("on" or "off";
	// "auto" is an alias of "on" and shares its fingerprint); empty means
	// on. Every row, under every policy, comes from analytic.Solver: on
	// stitches closed-form arcs, off integrates every arc with RK45 (the
	// validation baseline, about 80× slower). Like Invariants it is
	// part of the grid's identity: the two steppers agree only to the
	// integrator's tolerance, so rows from one must never replay as the
	// other's.
	Analytic string `json:"analytic,omitempty"`
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
// journal records cmd/bcnsweep has written since the resume PR, so a
// coordinator journal and a bcnsweep -resume journal are
// interchangeable.
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
	Analytic   string
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
	if _, err := analytic.ParseMode(g.Analytic); err != nil {
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

// AnalyticMode returns the grid's parsed engine mode (ModeOn for
// empty). The grid must have passed Validate.
func (g GainGrid) AnalyticMode() analytic.Mode {
	m, _ := analytic.ParseMode(g.Analytic)
	return m
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
			pts = append(pts, GainPoint{Gi: gi, Gd: geomAt(g.GdLo, g.GdHi, j, g.Steps)})
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
	mode, err := analytic.ParseMode(g.Analytic)
	if err != nil {
		return "", fmt.Errorf("cluster: %v", err)
	}
	return runstate.HashJSON(gridIdentity{
		Experiment: "bcnsweep/gainmap",
		// Format 3: rows may come from the analytic engine (exact extrema
		// in max_q_bits), so the engine mode joins the identity and every
		// pre-engine journal key is retired.
		// Format 4: checked rows come from the analytic engine too, with
		// violations counted at exact knots instead of polyline samples,
		// and analytic=off means RK45; no sampled row replays as a
		// knot-checked one.
		Format:  4,
		BOverQ0: g.BOverQ0,
		GiLo:    g.GiLo, GiHi: g.GiHi,
		GdLo: g.GdLo, GdHi: g.GdHi,
		Steps:      g.Steps,
		Invariants: pol.String(),
		Analytic:   mode.String(),
	})
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
	b = appendJSONString(b, fingerprint)
	b = appendJSONFloat(append(b, `,"Gi":`...), pt.Gi)
	b = appendJSONFloat(append(b, `,"Gd":`...), pt.Gd)
	return hexString(sha256.Sum256(append(b, '}')))
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
// (strongly_stable derives from outcome), rendered by appendCSV.
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

// appendCSV appends the verdict's map.csv row (no trailing newline) to
// b. Every float is strconv's shortest 'g' form, which is exactly what
// fmt's %g prints, so rows keep the bytes of the fmt layout
// "%g,%g,%d,%v,%v,%g,%s,%v,%g,%g,%d,%s" that existing journals, shard
// digests and golden maps hold (FuzzAppendRow pins the two together),
// without boxing twelve arguments per row.
func (v *verdict) appendCSV(b []byte) []byte {
	b = strconv.AppendFloat(b, v.gi, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, v.gd, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(v.kind), 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, v.linearStable)
	b = append(b, ',')
	b = strconv.AppendBool(b, v.theorem1OK)
	b = append(b, ',')
	b = strconv.AppendFloat(b, v.theorem1Bound, 'g', -1, 64)
	b = append(b, ',')
	b = append(b, v.outcome.String()...)
	b = append(b, ',')
	b = strconv.AppendBool(b, v.outcome.StronglyStable())
	b = append(b, ',')
	b = strconv.AppendFloat(b, v.maxQueue, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, v.rho, 'g', -1, 64)
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
// reports, minus its redundant inner solve.
func analyticVerdict(p core.Params, pt GainPoint, res analytic.Result, chk *invariant.Checker) verdict {
	return verdict{
		gi: pt.Gi, gd: pt.Gd, kind: p.Case(),
		linearStable:  linear.SubsystemStable(p, core.Increase) && linear.SubsystemStable(p, core.Decrease),
		theorem1OK:    core.Theorem1Satisfied(p),
		theorem1Bound: core.Theorem1Bound(p),
		outcome:       res.Outcome,
		maxQueue:      res.MaxQueue(p), rho: res.Rho,
		violations: chk.Violations(), firstPred: chk.FirstPredicate(),
	}
}

// EvalBatch evaluates a contiguous span of grid points, writing the row
// of pts[i] into out[i] (len(out) must equal len(pts)). It is the single
// canonical row evaluation — bcnsweep, the shard and sweep executors in
// internal/serve, and the chaos tests all reach it, which is what makes
// "byte-identical to a single-node run" a property instead of a hope.
// It is sweep.BatchFunc compatible.
//
// Every row comes from one warm analytic.Solver, under every invariant
// policy: a non-off policy attaches one checker, Reset per point, whose
// guard runs at the trajectory's exact knots and whose tallies fill the
// violations and first_violation columns. A strict violation aborts the
// span with the *invariant.InvariantError.
//
// Every row of the span is appended into one pre-sized buffer and
// converted to one string, so the span's Row.CSV values are substrings
// sharing that string's backing storage: a span costs a constant
// handful of allocations, not several per point.
func (g GainGrid) EvalBatch(ctx context.Context, pts []GainPoint, out []Row, m EvalMetrics) error {
	if len(out) != len(pts) {
		return fmt.Errorf("cluster: eval batch: %d outputs for %d points", len(out), len(pts))
	}
	s := analytic.NewSolver()
	chk := invariant.NewPolicy(g.Policy())
	opts := analytic.Options{Mode: g.AnalyticMode(), Invariants: chk, Metrics: m.Analytic}
	base := g.Base()
	buf := make([]byte, 0, len(pts)*maxAnalyticRowLen)
	// ends records where each row stops in buf; typical spans fit the
	// stack array.
	var endBuf [64]int
	ends := endBuf[:0]
	if len(pts) > len(endBuf) {
		ends = make([]int, 0, len(pts))
	}
	for i, pt := range pts {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := base
		p.Gi = pt.Gi
		p.Gd = pt.Gd
		chk.Reset()
		res, err := s.Solve(p, opts)
		if err != nil {
			return err
		}
		v := analyticVerdict(p, pt, res, chk)
		buf = v.appendCSV(buf)
		ends = append(ends, len(buf))
		out[i] = Row{Violations: v.violations, FirstPred: v.firstPred}
	}
	rows := string(buf)
	start := 0
	for i, end := range ends {
		out[i].CSV = rows[start:end]
		start = end
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
