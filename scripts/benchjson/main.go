// Command benchjson converts `go test -bench` text output into a
// machine-readable BENCH.json. It reads the benchmark stream on stdin,
// echoes it unchanged to stdout (so the human-readable view survives in
// CI logs), and writes the parsed results atomically to the -o path.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -count=5 ./... | go run ./scripts/benchjson -o BENCH.json
//
// The repeated lines of one benchmark (-count=N) fold into one result:
// each metric is the median of its runs, with the interquartile range
// beside it in "iqr" and the number of runs in "runs".
//
// Compare mode puts two trajectory points side by side: -against names
// a committed baseline (e.g. BENCH_10.json) and prints per-metric
// deltas, median against median, for every benchmark present in both
// files. Metrics listed in
// -gauges are higher-is-better (throughput gauges like points/s); a
// drop of more than 10% in any of them exits nonzero, unless the drop
// is within the baseline's spread: a regression's median gap must also
// exceed the baseline's interquartile range (0 for a single run), so a
// noisy gauge does not fail on noise its own baseline shows. All other
// metrics (ns/op, B/op, allocs/op) are informational. The current side
// comes from stdin as usual, or from an existing JSON file via
// -current when the benchmarks already ran:
//
//	go run ./scripts/benchjson -current BENCH.json -against BENCH_10.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"bcnphase/internal/runstate"
	"bcnphase/internal/stats"
)

// Result is one benchmark: one line, or the folded lines of its runs.
// Metrics maps unit → value, e.g. "ns/op": 11031781, "B/op": 123456,
// "allocs/op": 789; over several runs each value is the median (nearest
// rank) and IQR holds its interquartile range. Iterations sums the
// runs.
type Result struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Runs       int                `json:"runs,omitempty"`
	IQR        map[string]float64 `json:"iqr,omitempty"`
}

// File is the BENCH.json document.
type File struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output path for the parsed results")
	current := flag.String("current", "", "load the current results from this BENCH.json instead of parsing stdin (compare-only mode; skips -o)")
	against := flag.String("against", "", "baseline BENCH.json to compare against: print per-metric deltas, exit nonzero when a -gauges metric drops more than 10% and by more than the baseline's IQR")
	gauges := flag.String("gauges", "points/s", "comma-separated higher-is-better metric units gated by -against")
	flag.Parse()
	var (
		doc File
		err error
	)
	if *current != "" {
		doc, err = load(*current)
	} else {
		doc, err = run(os.Stdin, os.Stdout, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *against == "" {
		return
	}
	prev, err := load(*against)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	regs := compare(doc, prev, gaugeSet(*gauges), os.Stderr)
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gauge regression(s) beyond %.0f%% vs %s:\n", len(regs), 100*regressionThreshold, *against)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "  ", r)
		}
		os.Exit(1)
	}
}

func run(in io.Reader, echo io.Writer, outPath string) (File, error) {
	var (
		doc File
		// runs holds each result's metric samples, by unit; seen maps a
		// benchmark's package, name and procs to its result.
		runs []map[string][]float64
		seen = map[string]int{}
	)
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(pkg, line)
			if !ok {
				break
			}
			key := fmt.Sprintf("%s.%s-%d", r.Pkg, r.Name, r.Procs)
			i, dup := seen[key]
			if !dup {
				i, seen[key] = len(doc.Benchmarks), len(doc.Benchmarks)
				doc.Benchmarks = append(doc.Benchmarks, r)
				runs = append(runs, map[string][]float64{})
			} else {
				doc.Benchmarks[i].Iterations += r.Iterations
			}
			for unit, v := range r.Metrics {
				runs[i][unit] = append(runs[i][unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	for i := range doc.Benchmarks {
		fold(&doc.Benchmarks[i], runs[i])
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return File{}, err
	}
	return doc, runstate.WriteFileAtomic(outPath, append(raw, '\n'), 0o644)
}

// fold sets each metric of r to the median of its runs and, for a
// benchmark that ran more than once, records the run count and each
// metric's interquartile range.
func fold(r *Result, runs map[string][]float64) {
	// Percentile fails only on an empty series or a p outside [0, 100].
	for unit, vs := range runs {
		r.Metrics[unit], _ = stats.Percentile(vs, 50)
		if len(vs) < 2 {
			continue
		}
		q1, _ := stats.Percentile(vs, 25)
		q3, _ := stats.Percentile(vs, 75)
		if r.IQR == nil {
			r.IQR = map[string]float64{}
		}
		r.IQR[unit] = q3 - q1
		r.Runs = max(r.Runs, len(vs))
	}
}

// load reads a previously written BENCH.json document.
func load(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var doc File
	if err := json.Unmarshal(raw, &doc); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// regressionThreshold is the relative drop in a higher-is-better gauge
// that turns an informational delta into a failing comparison.
const regressionThreshold = 0.10

// gaugeSet parses the -gauges flag: a comma-separated list of metric
// units treated as higher-is-better.
func gaugeSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			set[g] = true
		}
	}
	return set
}

// compare prints one delta line per metric shared by both files and
// returns descriptions of every gauge that regressed: dropped by more
// than the threshold and by more than the baseline's interquartile
// range. Benchmarks or metrics present on only one side are noted
// but never gate: a renamed benchmark is a review question, not a perf
// regression.
func compare(cur, prev File, gauges map[string]bool, w io.Writer) []string {
	base := map[string]Result{}
	for _, b := range prev.Benchmarks {
		base[b.Pkg+"."+b.Name] = b
	}
	var regressions []string
	for _, b := range cur.Benchmarks {
		key := b.Pkg + "." + b.Name
		pb, ok := base[key]
		if !ok {
			fmt.Fprintf(w, "%s: no baseline\n", key)
			continue
		}
		for _, unit := range sortedKeys(b.Metrics) {
			curV := b.Metrics[unit]
			prevV, ok := pb.Metrics[unit]
			if !ok {
				fmt.Fprintf(w, "%s %s: %g (no baseline)\n", key, unit, curV)
				continue
			}
			line := fmt.Sprintf("%s %s: %g -> %g", key, unit, prevV, curV)
			if prevV != 0 {
				pct := 100 * (curV - prevV) / prevV
				line += fmt.Sprintf(" (%+.1f%%)", pct)
				if gauges[unit] && (prevV-curV)/prevV > regressionThreshold {
					if iqr := pb.IQR[unit]; prevV-curV > iqr {
						line += "  REGRESSION"
						regressions = append(regressions, line)
					} else {
						line += fmt.Sprintf("  (within baseline IQR %g)", iqr)
					}
				}
			} else if gauges[unit] && curV == 0 {
				// A gauge that was zero and stayed zero is a dead
				// benchmark, not a regression.
				line += " (baseline 0)"
			}
			fmt.Fprintln(w, line)
		}
	}
	return regressions
}

// sortedKeys gives deterministic delta ordering within a benchmark.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseLine decodes one "BenchmarkName-P  N  v1 u1  v2 u2 ..." line.
// Anything that does not follow the testing-package shape is skipped,
// not fatal: the stream may interleave test noise.
func parseLine(pkg, line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	name, procs := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Pkg: pkg, Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// splitProcs separates the GOMAXPROCS suffix: "BenchmarkFoo-8" →
// ("BenchmarkFoo", 8). A name with no suffix reports procs 1.
func splitProcs(s string) (string, int) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s, 1
	}
	p, err := strconv.Atoi(s[i+1:])
	if err != nil || p <= 0 {
		return s, 1
	}
	return s[:i], p
}
