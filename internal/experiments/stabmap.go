package experiments

import (
	"fmt"
	"math"

	"bcnphase/internal/core"
	"bcnphase/internal/linear"
	"bcnphase/internal/plot"
)

// StabilityMap sweeps the gain plane (Gi, Gd) at a fixed buffer and
// compares three verdicts on every grid point: the linear criterion of
// [4] (always "stable"), the Theorem 1 sufficient condition, and the
// ground truth from the stitched trajectory. The result quantifies the
// paper's core claim: linear analysis cannot see buffer-driven
// instability, and Theorem 1 is a safe (never optimistic) approximation
// of the truth.
func StabilityMap() (*Report, error) {
	base := core.FigureExample()
	base.B = 5 * base.Q0 // tight buffer so the gain choice matters

	rep := &Report{
		ID:    "stabmap",
		Title: "Stability region over (Gi, Gd): linear vs Theorem 1 vs trajectory",
		Description: "Grid sweep at B = 5·q0. 'safe' means Theorem 1 holds; " +
			"'true' means the stitched trajectory is strongly stable.",
	}

	gis := logspace(0.05, 12.8, 9)
	gds := logspace(1.0/1024, 0.5, 10)

	var (
		theoremStable, trajStable, linearStable int
		falseAlarm                              int // Theorem 1 fails but trajectory stable (conservatism)
		misses                                  int // Theorem 1 holds but trajectory unstable (must be 0)
		disagreements                           int // linear stable but trajectory unstable
	)
	// Scatter points for the chart.
	var stX, stY, unX, unY []float64
	table := Table{Name: "grid (subsample)", Header: []string{"Gi", "Gd", "linear", "thm1", "outcome"}}

	total := len(gis) * len(gds)
	for i, gi := range gis {
		for j, gd := range gds {
			p := base
			p.Gi, p.Gd = gi, gd
			v, err := linear.Compare(p)
			if err != nil {
				return nil, fmt.Errorf("stabmap: %w", err)
			}
			if v.LinearStable {
				linearStable++
			}
			if v.Theorem1OK {
				theoremStable++
			}
			if v.TrajectoryStable {
				trajStable++
				stX = append(stX, gi)
				stY = append(stY, gd)
			} else {
				unX = append(unX, gi)
				unY = append(unY, gd)
			}
			if v.Theorem1OK && !v.TrajectoryStable {
				misses++
			}
			if !v.Theorem1OK && v.TrajectoryStable {
				falseAlarm++
			}
			if v.Disagreement {
				disagreements++
			}
			if i%2 == 0 && j%3 == 0 {
				table.Rows = append(table.Rows, []string{
					fmt.Sprintf("%.3g", gi), fmt.Sprintf("%.4g", gd),
					fmt.Sprintf("%v", v.LinearStable), fmt.Sprintf("%v", v.Theorem1OK),
					v.Outcome.String(),
				})
			}
		}
	}
	rep.Tables = append(rep.Tables, table)
	rep.AddNumber("grid points", float64(total), "")
	rep.AddNumber("linear-stable", float64(linearStable), "")
	rep.AddNumber("Theorem1-stable", float64(theoremStable), "")
	rep.AddNumber("trajectory-stable", float64(trajStable), "")
	rep.AddNumber("linear disagreements (stable but not strongly stable)", float64(disagreements), "")
	rep.AddNumber("Theorem1 misses (MUST be 0)", float64(misses), "")
	rep.AddNumber("Theorem1 conservatism (safe but flagged)", float64(falseAlarm), "")

	chart := plot.NewChart("Stability over the gain plane (B = 5·q0)", "Gi", "Gd")
	chart.XLog, chart.YLog = true, true
	chart.Add(plot.Series{Name: "strongly stable", X: stX, Y: stY, Points: true, Width: 0.1})
	chart.Add(plot.Series{Name: "not strongly stable", X: unX, Y: unY, Points: true, Width: 0.1})
	// Theorem 1 boundary: Gd where (1+sqrt(Ru·Gi·N/(Gd·C)))·q0 = B, i.e.
	// Gd = Ru·Gi·N / (C·((B/q0 − 1))²).
	var bx, by []float64
	for _, gi := range logspace(0.05, 12.8, 64) {
		ratio := base.B/base.Q0 - 1
		gd := base.Ru * gi * float64(base.N) / (base.C * ratio * ratio)
		bx = append(bx, gi)
		by = append(by, gd)
	}
	chart.Add(plot.Series{Name: "Theorem 1 boundary", X: bx, Y: by, Style: plot.Dashed})
	rep.Charts = []NamedChart{{Name: "map", Chart: chart}}
	rep.Series = append(rep.Series, NamedSeries{Name: "thm1_boundary", T: bx, V: by})

	if misses != 0 {
		rep.Notes = append(rep.Notes, "UNEXPECTED: Theorem 1 declared stability on an unstable point")
	}
	if linearStable != total {
		rep.Notes = append(rep.Notes, "UNEXPECTED: the linear criterion should pass everywhere (Proposition 1)")
	}
	return rep, nil
}

func logspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, f)
	}
	return out
}
