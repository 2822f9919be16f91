// Command bcnsim runs the packet-level DCE dumbbell simulator: N sources
// through one BCN-controlled bottleneck, with optional 802.3x PAUSE.
//
// Example:
//
//	bcnsim -n 10 -c 1e9 -b 4e6 -q0 5e5 -dur 0.2 -csv queue.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bcnphase/internal/invariant"
	"bcnphase/internal/netsim"
	"bcnphase/internal/plot"
	"bcnphase/internal/runstate"
	"bcnphase/internal/telemetry"
)

func main() {
	ctx, stop, fired := runstate.TrapSignals(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		if fired() || runstate.Interrupted(err) {
			fmt.Fprintln(os.Stderr, "bcnsim:", err)
			os.Exit(runstate.ExitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "bcnsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcnsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 10, "number of sources")
		c        = fs.Float64("c", 1e9, "bottleneck capacity (bits/s)")
		line     = fs.Float64("line", 1e9, "per-source line rate (bits/s)")
		frame    = fs.Float64("frame", 12000, "frame size (bits)")
		b        = fs.Float64("b", 4e6, "buffer size (bits)")
		q0       = fs.Float64("q0", 5e5, "queue reference (bits)")
		w        = fs.Float64("w", 2, "sigma weight")
		pm       = fs.Float64("pm", 0.2, "sampling probability")
		ru       = fs.Float64("ru", 8e6, "rate unit (bits/s)")
		gi       = fs.Float64("gi", 0.05, "increase gain")
		gd       = fs.Float64("gd", 1.0/128, "decrease gain")
		initRate = fs.Float64("rate", 2e8, "initial per-source rate (bits/s)")
		prop     = fs.Float64("prop", 1e-6, "one-way propagation delay (s)")
		dur      = fs.Float64("dur", 0.1, "simulated duration (s)")
		noBCN    = fs.Bool("nobcn", false, "disable BCN (uncontrolled or PAUSE-only baseline)")
		pause    = fs.Bool("pause", false, "enable 802.3x PAUSE")
		qsc      = fs.Float64("qsc", 0, "PAUSE high watermark (bits); default 0.75*B when -pause")
		seed     = fs.Int64("seed", 1, "start-jitter seed (0 = synchronized sources)")
		csv      = fs.String("csv", "", "write the queue series to this CSV file")
		ascii    = fs.Bool("ascii", false, "print an ASCII chart of the queue series")
		trace    = fs.String("trace", "", "write a per-event trace to this file")
		invPol   = fs.String("invariants", "off", "runtime invariant checking: off, record, strict or clamp")
		telem    = fs.String("telemetry", "", "directory to write telemetry.json (metrics summary) and trace.jsonl")
	)
	if help, err := runstate.ParseFlags(fs, args, out); help || err != nil {
		return err
	}
	policy, err := invariant.ParsePolicy(*invPol)
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	if *telem != "" {
		if err := runstate.EnsureWritableDir(*telem); err != nil {
			return fmt.Errorf("telemetry preflight: %w", err)
		}
		reg = telemetry.NewRegistry()
		tracer := telemetry.NewTracer(0, nil)
		began := time.Now()
		span := tracer.Start("bcnsim/run")
		defer func() {
			span.End()
			if err := telemetry.DumpDir(*telem, "bcnsim", time.Since(began).Seconds(), reg, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "bcnsim: telemetry:", err)
			}
		}()
	}
	cfg := netsim.Config{
		N: *n, Capacity: *c, LineRate: *line, FrameBits: *frame,
		BufferBits: *b, PropDelay: netsim.FromSeconds(*prop),
		InitialRate: *initRate,
		BCN:         !*noBCN,
		Q0:          *q0, W: *w, Pm: *pm, Ru: *ru, Gi: *gi, Gd: *gd,
		Seed:       *seed,
		Invariants: policy,
		Metrics:    netsim.NewMetrics(reg),
	}
	if *pause {
		cfg.Pause = true
		cfg.Qsc = *qsc
		if cfg.Qsc == 0 {
			cfg.Qsc = 0.75 * *b
		}
		cfg.PauseDuration = netsim.FromSeconds(50e-6)
	}
	// The trace streams during the run, so it goes through an atomic
	// file: only a committed (complete) trace is published, a crash or
	// interruption mid-run leaves nothing truncated behind.
	var traceFile *runstate.AtomicFile
	if *trace != "" {
		af, err := runstate.CreateAtomic(*trace)
		if err != nil {
			return err
		}
		defer af.Abort()
		traceFile = af
		cfg.Trace = af
	}
	net, err := netsim.New(cfg)
	if err != nil {
		return err
	}
	res, err := net.RunContext(ctx, *dur)
	if err != nil {
		// An interrupted run drained cooperatively; discard the partial
		// trace (Abort is deferred) and surface the resumable status.
		if runstate.Interrupted(err) {
			at := 0.0
			if res != nil && len(res.Queue.T) > 0 {
				at = res.Queue.T[len(res.Queue.T)-1]
			}
			return fmt.Errorf("%w: simulation stopped at t=%.6gs of %gs", runstate.ErrInterrupted, at, *dur)
		}
		return err
	}
	if traceFile != nil {
		if err := traceFile.Commit(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "events:      %d\n", res.Events)
	fmt.Fprintf(out, "throughput:  %.6g bits/s (utilization %.4f)\n", res.Throughput, res.Utilization)
	fmt.Fprintf(out, "queue:       max=%.6g bits, trough after fill=%.6g bits\n", res.MaxQueueBits, res.MinQueueAfterFill)
	fmt.Fprintf(out, "drops:       %d frames (%.6g bits)\n", res.DroppedFrames, res.DroppedBits)
	fmt.Fprintf(out, "pauses:      %d\n", res.PausesSent)
	fmt.Fprintf(out, "latency:     mean=%.4gus p99=%.4gus (bottleneck sojourn)\n",
		res.MeanSojourn*1e6, res.P99Sojourn*1e6)
	fmt.Fprintf(out, "fairness:    Jain=%.4f\n", res.JainIndex)
	if cfg.BCN {
		fmt.Fprintf(out, "bcn:         %d samples, %d positive, %d negative messages\n",
			res.CPSamples, res.PosMessages, res.NegMessages)
	}
	if policy != invariant.Off {
		fmt.Fprintf(out, "invariants:  policy=%s violations=%d", policy, res.Invariants.Total)
		if res.Invariants.Total > 0 {
			fmt.Fprintf(out, " first=%s by predicate=%v", res.Invariants.FirstPredicate(), res.Invariants.ByPredicate)
		}
		fmt.Fprintln(out)
	}
	if *ascii {
		art, err := plot.ASCII("queue occupancy (bits)", 72, 18, plot.Series{
			Name: "queue", X: res.Queue.T, Y: res.Queue.V,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(out, art)
	}
	if *csv != "" {
		var sb strings.Builder
		sb.WriteString("t,queue_bits,agg_rate_bps\n")
		for i := range res.Queue.T {
			sb.WriteString(strconv.FormatFloat(res.Queue.T[i], 'g', 10, 64))
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(res.Queue.V[i], 'g', 10, 64))
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(res.AggRate.V[i], 'g', 10, 64))
			sb.WriteByte('\n')
		}
		if err := runstate.WriteFileAtomic(*csv, []byte(sb.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "queue series written to %s\n", *csv)
	}
	return nil
}
