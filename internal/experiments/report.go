// Package experiments regenerates every figure and worked result of the
// paper's evaluation, plus the validation and ablation studies described
// in DESIGN.md. Each experiment is a function returning a Report that
// bundles charts (rendered to SVG), tables, key numbers and raw series
// (exported as CSV); cmd/bcnreport writes them all to a directory and
// bench_test.go wraps each one in a benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bcnphase/internal/plot"
	"bcnphase/internal/runstate"
)

// NamedChart pairs a chart with the file stem it renders to.
type NamedChart struct {
	Name  string
	Chart *plot.Chart
}

// NamedSeries is a raw (t, v) series exported to CSV.
type NamedSeries struct {
	Name string
	T, V []float64
}

// Metric is one headline number of an experiment.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Table is a small textual table.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Report is the output of one experiment.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "fig6").
	ID string
	// Title and Description locate the experiment against the paper.
	Title, Description string
	Charts             []NamedChart
	Tables             []Table
	Numbers            []Metric
	Notes              []string
	Series             []NamedSeries
}

// AddNumber appends a headline metric.
func (r *Report) AddNumber(name string, value float64, unit string) {
	r.Numbers = append(r.Numbers, Metric{Name: name, Value: value, Unit: unit})
}

// Number returns the named metric value, or NaN-free zero and false.
func (r *Report) Number(name string) (float64, bool) {
	for _, m := range r.Numbers {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Text renders the report as a human-readable summary.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Description)
	}
	for _, m := range r.Numbers {
		fmt.Fprintf(&b, "  %-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, tb := range r.Tables {
		fmt.Fprintf(&b, "  -- %s --\n", tb.Name)
		fmt.Fprintf(&b, "  %s\n", strings.Join(tb.Header, " | "))
		for _, row := range tb.Rows {
			fmt.Fprintf(&b, "  %s\n", strings.Join(row, " | "))
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// WriteFiles renders the report's charts as SVG and its series as CSV
// under dir, prefixing file names with the experiment ID. Every artifact
// is published atomically (rendered in memory, then tmp+fsync+rename),
// so a crash mid-write never leaves a truncated file for a later run to
// silently trust.
func (r *Report) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report %s: %w", r.ID, err)
	}
	for _, nc := range r.Charts {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.svg", r.ID, nc.Name))
		svg, err := nc.Chart.RenderBytes()
		if err != nil {
			return fmt.Errorf("report %s: render %s: %w", r.ID, nc.Name, err)
		}
		if err := runstate.WriteFileAtomic(path, svg, 0o644); err != nil {
			return fmt.Errorf("report %s: %w", r.ID, err)
		}
	}
	for _, ns := range r.Series {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, ns.Name))
		var b strings.Builder
		b.WriteString("t,v\n")
		for i := range ns.T {
			b.WriteString(strconv.FormatFloat(ns.T[i], 'g', 12, 64))
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(ns.V[i], 'g', 12, 64))
			b.WriteByte('\n')
		}
		if err := runstate.WriteFileAtomic(path, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("report %s: %w", r.ID, err)
		}
	}
	summary := filepath.Join(dir, fmt.Sprintf("%s_summary.txt", r.ID))
	if err := runstate.WriteFileAtomic(summary, []byte(r.Text()), 0o644); err != nil {
		return fmt.Errorf("report %s: %w", r.ID, err)
	}
	return nil
}

// Runner produces one experiment report.
type Runner func() (*Report, error)

// Entry couples an experiment ID with its runner.
type Entry struct {
	ID   string
	Run  Runner
	What string
}

// Registry lists every experiment in DESIGN.md order.
func Registry() []Entry {
	return []Entry{
		{"fig3", Fig3, "taxonomy of phase trajectories vs strong stability"},
		{"fig4", Fig4, "spiral (stable focus) trajectories with extrema"},
		{"fig5", Fig5, "node trajectories with eigenline asymptotes"},
		{"fig6", Fig6, "Case 1 phase portrait and time-domain behavior"},
		{"fig7", Fig7, "limit-cycle (quasi-closed orbit) behavior"},
		{"fig8", Fig8, "Case 2: node in increase, spiral in decrease"},
		{"fig9", Fig9, "Case 3: spiral in increase, node in decrease"},
		{"fig10", Fig10, "Case 4: node in both regions"},
		{"theorem1", Theorem1Example, "worked buffer-sizing example and sweeps"},
		{"validate", FluidVsPacket, "fluid model vs packet-level simulation"},
		{"stabmap", StabilityMap, "linear vs Theorem 1 vs trajectory verdicts over (Gi, Gd)"},
		{"transient", TransientSweep, "w/pm affect transients, not stability"},
		{"qcncompare", QCNComparison, "BCN vs the standardized QCN successor"},
		{"spreading", CongestionSpreading, "PAUSE head-of-line blocking vs BCN on two switches"},
		{"fairness", Fairness, "flow fairness vs sampling: BCN starvation vs QCN self-increase"},
		{"delay", DelaySensitivity, "propagation-delay sensitivity of the fluid approximation"},
		{"paperscale", PaperScale, "packet-level replay of the Theorem 1 example"},
		{"x5", FaultTolerance, "strong stability under feedback loss × delay jitter"},
		{"xcheck", CrossValidation, "closed-form vs numerical cross-validation self-check"},
	}
}

// SafeRun executes one experiment with panic recovery, so a crashing
// runner degrades to an error instead of killing the whole batch.
func SafeRun(e Entry) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return e.Run()
}

// RunAllContext executes every experiment and writes each completed
// one's artifacts under dir, returning the combined textual summary and
// the completed reports for reuse (e.g. markdown rendering without
// re-running every experiment). A failing (or panicking) experiment does
// not abort the batch: its failure is summarized in place, the remaining
// experiments still run, and the joined error of every failure is
// returned alongside the summary. Cancellation is honored at experiment
// boundaries: already-written artifacts stay valid (each is published
// atomically), the remaining experiments are skipped, and the returned
// error wraps runstate.ErrInterrupted so callers can exit with the
// "interrupted, resumable" status.
func RunAllContext(ctx context.Context, dir string) (string, []*Report, error) {
	var b strings.Builder
	var errs []error
	var reports []*Report
	for _, e := range Registry() {
		if err := ctx.Err(); err != nil {
			errs = append(errs, fmt.Errorf("%w: stopped before experiment %s: %v", runstate.ErrInterrupted, e.ID, err))
			fmt.Fprintf(&b, "== %s: SKIPPED (interrupted) ==\n\n", e.ID)
			break
		}
		rep, err := SafeRun(e)
		if err == nil {
			err = rep.WriteFiles(dir)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("experiment %s: %w", e.ID, err))
			fmt.Fprintf(&b, "== %s: FAILED ==\n  error: %v\n\n", e.ID, err)
			continue
		}
		reports = append(reports, rep)
		b.WriteString(rep.Text())
		b.WriteString("\n")
	}
	return b.String(), reports, errors.Join(errs...)
}
