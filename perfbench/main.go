// Command perfbench is bcnphase's end-to-end benchmark. One run drives
// one workload through the program's public packages for a fixed time,
// checks every output, and prints one line per metric (name, value,
// unit, sample count) followed by a JSON summary as the last line of
// standard output:
//
//	python3 perfbench/run.py --workload sweep-local --seed 1 --seconds 10 --trace 0
//
// run.py builds this package; run it from the repository root, where
// BENCHMARK.json lives. Every workload is a closed loop of operations:
//
//	sweep-local    one 32×32 gain map (RunBatched over EvalBatch, RenderCSV)
//	serve-jobs     one POST /v1/jobs solve job (two clients)
//	cluster-sweep  one 16×16 grid over POST /v1/sweeps
//	netsim-packet  one sustained plus one bursty packet simulation
//
// With --trace 0 it prints the end-to-end figures: cpu_ms_per_op
// (process CPU time per verified operation, in-process clients
// included), peak_rss_mb, setup_s and setup_wall_s (process CPU time and
// wall time of one set-up, the median of several), ops_per_s
// (verified operations per second inside operations), op_p50_ms,
// op_p90_ms and op_p99_ms (operation times; a failed operation counts as
// infinitely slow), failed_share and steal_share (the share of the
// machine's CPU time the host took during the timed phase). The JSON
// summary carries the ones BENCHMARK.json declares. Gain points per
// second are ops_per_s×1024 on sweep-local and ×256 on cluster-sweep;
// simulated milliseconds per second are ops_per_s×50 on netsim-packet.
//
// With --trace 1 it runs the workload twice, untraced and traced, for
// half the time each, and reports the per-layer metrics and the tracing
// overhead (traced over untraced CPU time per operation, minus one); a
// layer the workload never reaches reads 0 with n=0. The
// spans go to .bench_build/trace/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// fixture is one workload's system under test, built by its setup.
type fixture interface {
	// input returns operation i's generated input; it is not timed.
	input(i int) (any, error)
	// op performs operation i; only this call is timed.
	op(ctx context.Context, i int, in any) (any, error)
	// keep takes operation i's output for checking, either now (a cheap
	// comparison with a reference made before the timed phase) or after
	// the run. It must be safe for concurrent use.
	keep(i int, in, out any)
	// check verifies the outputs kept so far and returns how many were
	// wrong. It runs after the timed phase.
	check() (wrong int, err error)
	// layers adds the per-layer metrics of a traced pass.
	layers(l *layerSet, p *pass) error
	close()
}

// workload describes one traffic mix.
type workloadDef struct {
	name    string
	clients int
	// prepare builds what the output checks compare against; it runs
	// after set-up and before the timed phase, and is timed by neither.
	prepare func(fx fixture) error
	setup   func(e env) (fixture, error)
	// rssAt is the operation after which peak_rss_mb is read. Journals
	// keep every record in memory, so memory grows with the operations
	// done; reading it after a fixed count keeps a faster program from
	// reading as a fatter one. A run that ends sooner reads it at its end.
	rssAt int
}

// env is what a set-up receives.
type env struct {
	seed int64
	dir  string // private scratch directory inside the checkout
	t    *tracer
}

var workloads = []workloadDef{
	{name: "sweep-local", clients: 1, setup: setupSweepLocal, prepare: prepareSweepLocal, rssAt: 1000},
	{name: "serve-jobs", clients: 2, setup: setupServeJobs, rssAt: 40000},
	{name: "cluster-sweep", clients: 1, setup: setupClusterSweep, rssAt: 400},
	{name: "netsim-packet", clients: 1, setup: setupNetsim, rssAt: 100},
}

// setupRepeats is how many times a trace-0 run builds its fixture; the
// reported setup_s is the median.
const setupRepeats = 15

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// layerSet collects per-layer metrics with their sample counts.
type layerSet struct {
	vals    map[string]float64
	samples map[string]int
}

func (l *layerSet) set(name string, v float64, samples int) {
	l.vals[name] = v
	l.samples[name] = samples
}

func run(name string, seed int64, seconds float64, trace int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	declared := false
	for _, w := range bf.Workloads {
		declared = declared || w.Name == name
	}
	if wl == nil || !declared {
		return fmt.Errorf("unknown workload %q", name)
	}
	if !(seconds > 0) || seconds > 600 {
		return fmt.Errorf("--seconds %v out of range", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}

	base, err := filepath.Abs(filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	out := summary{Correct: true, Metrics: make(map[string]metricOut)}
	var lines []string
	line := func(metric string, v float64, unit string, samples int) {
		lines = append(lines, fmt.Sprintf("%s %-40s %14.6g %-9s n=%d", name, metric, v, unit, samples))
	}
	report := func(d metricDecl, v float64, samples int) {
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		line(d.Name, v, d.Unit, samples)
	}

	if trace == 0 {
		p, err := runPass(wl, seed, base, seconds, nil, setupRepeats)
		if err != nil {
			return err
		}
		out.Attempted, out.Failed = p.attempted, p.failed
		// Every figure is printed; BENCHMARK.json picks the ones the
		// summary carries and bounds. Wall-clock rates, latencies and
		// set-up times move with CPU time the host steals from a shared
		// virtual machine (steal_share), by more than a bound may allow;
		// process CPU time does not, because the kernel charges stolen
		// time to no process. failed_share is 0 on a healthy run, so the
		// summary carries it as failed and attempted instead.
		measured := []struct {
			name, unit string
			v          float64
			n          int
		}{
			{"setup_s", "s", median(p.setupCPU), len(p.setupCPU)},
			{"setup_wall_s", "s", median(p.setupWall), len(p.setupWall)},
			{"cpu_ms_per_op", "ms", p.cpuPerOpMs(), p.attempted},
			{"peak_rss_mb", "MB", p.peakRSSMB, 1},
			{"ops_per_s", "ops/s", p.opsPerSec(), p.attempted},
			{"op_p50_ms", "ms", p.latencyMs(0.50), p.attempted},
			{"op_p90_ms", "ms", p.latencyMs(0.90), p.attempted},
			{"op_p99_ms", "ms", p.latencyMs(0.99), p.attempted},
			{"failed_share", "fraction", ratio(float64(p.failed), float64(p.attempted)), p.attempted},
			{"peak_rss_end_mb", "MB", peakRSSMB(), 1},
			{"steal_share", "fraction", p.steal, 1},
		}
		declared := make(map[string]metricDecl)
		for _, d := range bf.EndToEnd {
			declared[d.Name] = d
		}
		for _, m := range measured {
			if d, ok := declared[m.name]; ok {
				report(d, m.v, m.n)
				delete(declared, m.name)
			} else {
				line(m.name, m.v, m.unit, m.n)
			}
		}
		for name := range declared {
			return fmt.Errorf("BENCHMARK.json declares end-to-end metric %q that perfbench does not measure", name)
		}
		lines = append(lines, p.notes...)
	} else {
		half := seconds / 2
		plain, err := runPass(wl, seed, filepath.Join(base, "untraced"), half, nil, 1)
		if err != nil {
			return err
		}
		t := newTracer()
		traced, err := runPass(wl, seed, filepath.Join(base, "traced"), half, t, 1)
		if err != nil {
			return err
		}
		out.Attempted = plain.attempted + traced.attempted
		out.Failed = plain.failed + traced.failed
		ls := traced.layers
		ls.set("trace.overhead_share", ratio(traced.cpuPerOpMs(), plain.cpuPerOpMs())-1, traced.attempted)
		for _, d := range bf.PerLayer {
			report(d, ls.vals[d.Name], ls.samples[d.Name])
			delete(ls.vals, d.Name)
		}
		if len(ls.vals) > 0 {
			var extra []string
			for k := range ls.vals {
				extra = append(extra, k)
			}
			sort.Strings(extra)
			return fmt.Errorf("per-layer metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
		}
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := t.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		lines = append(lines, plain.notes...)
		lines = append(lines, traced.notes...)
		lines = append(lines, fmt.Sprintf("%s trace written to %s", name, path))
	}
	if err := selfTest(name, seed); err != nil {
		out.Correct = false
		lines = append(lines, name+" "+err.Error())
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !out.Correct {
		return errors.New("output check failed")
	}
	return nil
}

// pass is one set-up plus one timed phase of a workload.
type pass struct {
	clients   int
	attempted int
	failed    int // failed or refused operations plus wrong outputs
	// latencies holds every attempted operation's time in seconds; a
	// failed one is +Inf, beyond any limit.
	latencies []float64
	busy      time.Duration // summed operation time over all clients
	allocs    uint64        // process heap allocations during the timed phase
	cpu       time.Duration // process CPU time during the timed phase
	steal     float64       // share of the machine's CPU time stolen by the host
	peakRSSMB float64
	// setupWall and setupCPU are each set-up's wall and process CPU time
	// in seconds.
	setupWall, setupCPU []float64
	layers              *layerSet
	notes               []string
}

// opsPerSec is verified operations per second of the timed phase, whose
// length is the clients' summed time inside operations over the client
// count.
func (p *pass) opsPerSec() float64 {
	return ratio(float64(p.attempted-p.failed), p.busy.Seconds()/float64(p.clients))
}

// cpuPerOpMs is the process CPU time of the timed phase per verified
// operation, in milliseconds. Clients that run in the process count.
func (p *pass) cpuPerOpMs() float64 {
	return ratio(float64(p.cpu)/1e6, float64(p.attempted-p.failed))
}

func (p *pass) latencyMs(q float64) float64 {
	return quantile(sortedCopy(p.latencies), q) * 1e3
}

type opResult struct {
	i   int
	dur time.Duration
	err error
}

// runPass sets the workload up repeats times (keeping the last fixture),
// runs the timed phase for seconds, then checks every output.
func runPass(wl *workloadDef, seed int64, dir string, seconds float64, t *tracer, repeats int) (*pass, error) {
	var (
		fx                  fixture
		setupWall, setupCPU []float64
	)
	t.setOp(-1) // set-up spans stay out of the per-layer metrics
	for k := 0; k < repeats; k++ {
		if fx != nil {
			fx.close()
		}
		began, cpu0 := time.Now(), processCPU()
		var err error
		fx, err = wl.setup(env{seed: seed, dir: filepath.Join(dir, fmt.Sprintf("setup%d", k)), t: t})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setupWall = append(setupWall, time.Since(began).Seconds())
		setupCPU = append(setupCPU, (processCPU() - cpu0).Seconds())
	}
	defer fx.close()
	if wl.prepare != nil {
		if err := wl.prepare(fx); err != nil {
			return nil, fmt.Errorf("%s: prepare checks: %w", wl.name, err)
		}
	}
	runtime.GC()

	p := &pass{clients: wl.clients, setupWall: setupWall, setupCPU: setupCPU}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []opResult
		ctx     = context.Background()
		stop    = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		allocs0 = heapAllocs()
		cpu0    = processCPU()
		steal0  = readStat()
		rss     atomic.Uint64 // math.Float64bits of peak RSS at rssAt
	)
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opResult
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				in, err := fx.input(i)
				if err != nil {
					mine = append(mine, opResult{i: i, err: err})
					break
				}
				t.setOp(i)
				began := time.Now()
				out, err := fx.op(ctx, i, in)
				dur := time.Since(began)
				mine = append(mine, opResult{i: i, dur: dur, err: err})
				if err == nil {
					fx.keep(i, in, out)
				}
				if i == wl.rssAt {
					rss.Store(math.Float64bits(peakRSSMB()))
				}
			}
			mu.Lock()
			results = append(results, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.allocs = heapAllocs() - allocs0
	p.cpu = processCPU() - cpu0
	p.steal = readStat().stealShare(steal0)
	p.peakRSSMB = math.Float64frombits(rss.Load())
	if p.peakRSSMB == 0 {
		p.peakRSSMB = peakRSSMB()
	}

	sort.Slice(results, func(a, b int) bool { return results[a].i < results[b].i })
	var firstErr error
	for _, r := range results {
		p.attempted++
		p.busy += r.dur
		lat := r.dur.Seconds()
		if r.err != nil {
			p.failed++
			lat = math.Inf(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("operation %d: %w", r.i, r.err)
			}
		}
		p.latencies = append(p.latencies, lat)
	}
	if firstErr != nil {
		p.notes = append(p.notes, fmt.Sprintf("%s FAILED %d of %d operations; first: %v", wl.name, p.failed, p.attempted, firstErr))
	}
	wrong, err := fx.check()
	if err != nil {
		p.notes = append(p.notes, fmt.Sprintf("%s CHECK FAILED: %d wrong outputs: %v", wl.name, wrong, err))
		if wrong == 0 {
			wrong = 1
		}
	}
	p.failed += wrong
	if t != nil {
		p.layers = &layerSet{vals: make(map[string]float64), samples: make(map[string]int)}
		if err := fx.layers(p.layers, p); err != nil {
			return nil, fmt.Errorf("%s: per-layer metrics: %w", wl.name, err)
		}
	}
	return p, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine-wide CPU time line of /proc/stat.
type cpuStat struct{ total, steal float64 }

func readStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	var st cpuStat
	for k, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if k < 8 { // user nice system idle iowait irq softirq steal
			st.total += x
		}
		if k == 7 {
			st.steal = x
		}
	}
	return st
}

func (s cpuStat) stealShare(before cpuStat) float64 {
	return ratio(s.steal-before.steal, s.total-before.total)
}
