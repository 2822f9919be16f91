package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryRunsClean executes every registered experiment and checks
// that none produced an "UNEXPECTED" note — the experiments self-verify
// the paper's qualitative claims (who wins, where boundaries fall).
func TestRegistryRunsClean(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.ID != e.ID {
				t.Errorf("report ID = %q, want %q", rep.ID, e.ID)
			}
			if rep.Title == "" {
				t.Error("empty title")
			}
			for _, n := range rep.Notes {
				if strings.HasPrefix(n, "UNEXPECTED") {
					t.Errorf("self-check failed: %s", n)
				}
			}
			if len(rep.Charts) == 0 {
				t.Error("no charts produced")
			}
			if txt := rep.Text(); !strings.Contains(txt, rep.ID) {
				t.Error("Text() missing the experiment ID")
			}
		})
	}
}

func TestReportWriteFiles(t *testing.T) {
	dir := t.TempDir()
	rep, err := Fig4()
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if err := rep.WriteFiles(dir); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var svg, csv, txt int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".svg":
			svg++
		case ".csv":
			csv++
		case ".txt":
			txt++
		}
		if !strings.HasPrefix(e.Name(), "fig4_") {
			t.Errorf("file %q not ID-prefixed", e.Name())
		}
	}
	if svg == 0 || csv == 0 || txt != 1 {
		t.Errorf("artifact counts: svg=%d csv=%d txt=%d", svg, csv, txt)
	}
	// SVG files must be well-formed enough to contain the root element.
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".svg" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "</svg>") {
			t.Errorf("%s is not a complete SVG", e.Name())
		}
	}
}

func TestReportNumberLookup(t *testing.T) {
	rep := &Report{ID: "x"}
	rep.AddNumber("alpha", 42, "s")
	if v, ok := rep.Number("alpha"); !ok || v != 42 {
		t.Errorf("Number(alpha) = %v, %v", v, ok)
	}
	if _, ok := rep.Number("missing"); ok {
		t.Error("missing metric found")
	}
}

// TestTheorem1HeadlineNumbers pins the quantitative reproduction of the
// paper's worked example.
func TestTheorem1HeadlineNumbers(t *testing.T) {
	rep, err := Theorem1Example()
	if err != nil {
		t.Fatalf("Theorem1Example: %v", err)
	}
	bound, ok := rep.Number("required buffer (Theorem 1)")
	if !ok {
		t.Fatal("missing bound metric")
	}
	// Paper quotes 13.75 Mbit; the exact expression gives 13.81 Mbit.
	if bound < 13.5e6 || bound > 14.2e6 {
		t.Errorf("bound = %v, want ~13.75-13.81 Mbit", bound)
	}
	ratio, _ := rep.Number("required / BDP ratio")
	if ratio < 2.5 || ratio > 3.0 {
		t.Errorf("required/BDP = %v, paper says nearly 3x", ratio)
	}
	tight, _ := rep.Number("bound tightness (peak/bound)")
	if tight <= 0.9 || tight > 1.0 {
		t.Errorf("tightness = %v, want in (0.9, 1]", tight)
	}
}

// TestValidateAgreement pins the fluid-vs-packet agreement quality.
func TestValidateAgreement(t *testing.T) {
	rep, err := FluidVsPacket()
	if err != nil {
		t.Fatalf("FluidVsPacket: %v", err)
	}
	nrmse, ok := rep.Number("NRMSE (queue, fluid vs packet)")
	if !ok {
		t.Fatal("missing NRMSE")
	}
	if nrmse > 0.2 {
		t.Errorf("NRMSE = %v, want < 0.2", nrmse)
	}
	peakRatio, _ := rep.Number("peak ratio packet/fluid")
	if peakRatio < 0.8 || peakRatio > 1.2 {
		t.Errorf("peak ratio = %v, want within 20%%", peakRatio)
	}
	drops, _ := rep.Number("packet drops")
	if drops != 0 {
		t.Errorf("drops = %v", drops)
	}
}

// TestStabilityMapSoundness pins the safety property: Theorem 1 never
// declares an unstable point stable, while the linear criterion passes
// everywhere.
func TestStabilityMapSoundness(t *testing.T) {
	rep, err := StabilityMap()
	if err != nil {
		t.Fatalf("StabilityMap: %v", err)
	}
	misses, _ := rep.Number("Theorem1 misses (MUST be 0)")
	if misses != 0 {
		t.Errorf("Theorem 1 misses = %v", misses)
	}
	total, _ := rep.Number("grid points")
	linearOK, _ := rep.Number("linear-stable")
	if linearOK != total {
		t.Errorf("linear-stable = %v of %v, want all (Proposition 1)", linearOK, total)
	}
	disag, _ := rep.Number("linear disagreements (stable but not strongly stable)")
	if disag == 0 {
		t.Error("expected some linear/strong disagreements at the tight buffer")
	}
}

// TestTransientMonotone pins the w-sweep direction: more w, more damping.
func TestTransientMonotone(t *testing.T) {
	rep, err := TransientSweep()
	if err != nil {
		t.Fatalf("TransientSweep: %v", err)
	}
	lo, _ := rep.Number("rho at w=0.25")
	hi, _ := rep.Number("rho at w=16")
	if !(hi < lo) {
		t.Errorf("rho should fall as w grows: rho(0.25)=%v rho(16)=%v", lo, hi)
	}
	if lo >= 1 || hi >= 1 {
		t.Errorf("rho must stay below 1: %v, %v", lo, hi)
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAllContext regenerates every figure; skipped in -short")
	}
	dir := t.TempDir()
	summary, _, err := RunAllContext(context.Background(), dir)
	if err != nil {
		t.Fatalf("RunAllContext: %v", err)
	}
	for _, e := range Registry() {
		if !strings.Contains(summary, "== "+e.ID+":") {
			t.Errorf("summary missing %s", e.ID)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2*len(Registry()) {
		t.Errorf("only %d artifacts written", len(entries))
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("l8/l9 convergent spiral"); got != "l8_l9_convergent_spiral" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestLogspace(t *testing.T) {
	v := logspace(1, 100, 3)
	if len(v) != 3 || v[0] != 1 || v[2] != 100 {
		t.Errorf("logspace = %v", v)
	}
	if v[1] < 9.9 || v[1] > 10.1 {
		t.Errorf("geometric midpoint = %v, want ~10", v[1])
	}
}

func TestReportMarkdown(t *testing.T) {
	rep := &Report{
		ID:          "x",
		Title:       "Title",
		Description: "Desc",
		Tables: []Table{{
			Name:   "t|name",
			Header: []string{"a", "b|c"},
			Rows:   [][]string{{"1", "2"}},
		}},
		Charts: []NamedChart{{Name: "chart"}},
		Notes:  []string{"note"},
	}
	rep.AddNumber("m", 3.5, "bits")
	md := rep.Markdown()
	for _, want := range []string{
		"## x — Title", "| m | 3.5 bits |", "t\\|name", "b\\|c",
		"![chart](x_chart.svg)", "> note",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
