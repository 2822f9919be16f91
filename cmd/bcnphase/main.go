// Command bcnphase analyzes one BCN parameter set with the phase-plane
// machinery: case classification, all stability criteria, the stitched
// trajectory verdict, and optionally an SVG phase portrait.
//
// Example:
//
//	bcnphase -n 50 -c 10e9 -q0 2.5e6 -b 5e6 -gi 4 -gd 0.0078125 -svg out.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/invariant/xcheck"
	"bcnphase/internal/linear"
	"bcnphase/internal/plot"
	"bcnphase/internal/runstate"
	"bcnphase/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcnphase:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcnphase", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 50, "number of flows")
		c      = fs.Float64("c", 10e9, "bottleneck capacity (bits/s)")
		ru     = fs.Float64("ru", core.DefaultRu, "rate increase unit (bits/s)")
		gi     = fs.Float64("gi", core.DefaultGi, "additive increase gain")
		gd     = fs.Float64("gd", core.DefaultGd, "multiplicative decrease gain")
		w      = fs.Float64("w", core.DefaultW, "sigma weight")
		pm     = fs.Float64("pm", core.DefaultPm, "sampling probability")
		q0     = fs.Float64("q0", 2.5e6, "queue reference (bits)")
		b      = fs.Float64("b", 5e6, "buffer size (bits)")
		svg    = fs.String("svg", "", "write the phase portrait to this SVG file")
		warmup = fs.Float64("warmup", -1, "per-source initial rate for the warm-up phase (bits/s); negative disables")
		size   = fs.Bool("size", false, "print inverse provisioning: max flows/Gi, min Gd, max q0 for this buffer")
		trans  = fs.Bool("transient", false, "print transient metrics (overshoot, period, settling)")
		invPol = fs.String("invariants", "off", "runtime invariant checking: off, record, strict or clamp")
		xc     = fs.Bool("xcheck", false, "cross-validate the stitched trajectory against an independent numerical integration")
		telem  = fs.String("telemetry", "", "directory to write telemetry.json (metrics summary) and trace.jsonl")
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
		span := tracer.Start("bcnphase/run")
		defer func() {
			span.End()
			if err := telemetry.DumpDir(*telem, "bcnphase", time.Since(began).Seconds(), reg, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "bcnphase: telemetry:", err)
			}
		}()
	}
	solveMetrics := core.NewSolveMetrics(reg)
	p := core.Params{
		N: *n, C: *c, Ru: *ru, Gi: *gi, Gd: *gd, W: *w, Pm: *pm, Q0: *q0, B: *b,
	}
	chk := invariant.NewPolicy(policy)
	if err := p.Validate(); err != nil {
		if ferr := chk.Fail(core.PredParamsValid, 0, err.Error()); ferr != nil {
			return ferr
		}
		if !chk.Enabled() {
			return err
		}
		// Record/Clamp: integrate through the broken parameters and
		// report what the guards saw; the derived criteria and linear
		// comparison are meaningless here, so print a reduced analysis.
		tr, serr := core.Solve(p, core.SolveOptions{SamplesPerArc: 128, Invariants: chk, Telemetry: solveMetrics})
		if serr != nil {
			return serr
		}
		fmt.Fprintf(out, "parameters: INVALID: %v\n", err)
		fmt.Fprintf(out, "trajectory: outcome=%v  strongly stable=%v\n",
			tr.Outcome, tr.Outcome.StronglyStable())
		fmt.Fprintf(out, "invariants: policy=%s  violations=%d  first=%s  by predicate=%v\n",
			policy, tr.Violations.Total, tr.Violations.FirstPredicate(), tr.Violations.ByPredicate)
		return nil
	}

	rep, err := core.Criteria(p)
	if err != nil {
		return err
	}
	opts := core.SolveOptions{SamplesPerArc: 128, Invariants: chk, Telemetry: solveMetrics}
	if *warmup >= 0 {
		mu := *warmup
		opts.WarmupFromRate = &mu
	}
	tr, err := core.Solve(p, opts)
	if err != nil {
		return err
	}
	// The verdict comes from the sampling-free engine, always from the
	// canonical start; the sampled solve above only draws the polyline.
	res, err := analytic.SolveOne(p, analytic.Options{})
	if err != nil {
		return err
	}
	linearStable := linear.Stable(&p)

	fmt.Fprintf(out, "parameters: N=%d C=%.4g Ru=%.4g Gi=%.4g Gd=%.6g w=%.3g pm=%.3g q0=%.4g B=%.4g\n",
		p.N, p.C, p.Ru, p.Gi, p.Gd, p.W, p.Pm, p.Q0, p.B)
	fmt.Fprintf(out, "derived:    a=%.6g  b=%.6g  k=%.6g  thresholds a<%.4g b<%.4g\n",
		p.A(), p.Bcoef(), p.K(), p.AThreshold(), p.BThreshold())
	fmt.Fprintf(out, "case:       %v\n", rep.Case)
	fmt.Fprintf(out, "linear analysis [4]:    stable=%v (Proposition 1: always for valid params)\n", linearStable)
	fmt.Fprintf(out, "Theorem 1:  bound=%.6g bits, satisfied=%v (buffer %.6g)\n",
		rep.Theorem1Bound, rep.Theorem1OK, p.B)
	if rep.Exact {
		fmt.Fprintf(out, "first round: max1=%.6g (peak q %.6g)  min1=%.6g (trough q %.6g)\n",
			rep.Max1, p.Q0+rep.Max1, rep.Min1, p.Q0+rep.Min1)
	}
	fmt.Fprintf(out, "trajectory: outcome=%v  strongly stable=%v  rho=%.6f\n",
		tr.Outcome, tr.Outcome.StronglyStable(), tr.Rho)
	fmt.Fprintf(out, "excursion:  max q=%.6g  min q=%.6g  arcs=%d  crossings=%d\n",
		tr.MaxQueue(), tr.MinQueue(), len(tr.Segments), len(tr.Crossings))
	if tr.Rho > 0 && tr.Rho < 1 {
		fmt.Fprintf(out, "transient:  rounds to halve amplitude=%.4g\n", math.Log(0.5)/math.Log(tr.Rho))
	}
	// Engine cross-check: the sampling-free analytic engine must agree
	// with the sampled trajectory on the classification (they share the
	// closed forms bit for bit). The analytic engine knows nothing about
	// warmup starts, so those runs skip it.
	if *warmup < 0 {
		fmt.Fprintf(out, "engine:     path=%s outcome=%v  exact max q=%.6g min q=%.6g\n",
			res.Path, res.Outcome, res.MaxQueue(p), res.MinQueue(p))
		if res.Outcome != tr.Outcome {
			return fmt.Errorf("analytic engine disagrees with sampled solve: %v vs %v", res.Outcome, tr.Outcome)
		}
	}
	if linearStable && !res.Outcome.StronglyStable() {
		fmt.Fprintln(out, "NOTE: linear theory declares this system stable, but it is NOT strongly stable")
	}
	if policy != invariant.Off {
		fmt.Fprintf(out, "invariants: policy=%s  violations=%d", policy, tr.Violations.Total)
		if tr.Violations.Total > 0 {
			fmt.Fprintf(out, "  first=%s  by predicate=%v", tr.Violations.FirstPredicate(), tr.Violations.ByPredicate)
		}
		fmt.Fprintln(out)
	}
	if *xc {
		r, err := xcheck.CrossValidate(p, xcheck.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r)
		if err := r.Err(); err != nil {
			return err
		}
	}

	if *size {
		if nMax, err := core.MaxFlowsForBuffer(p); err == nil {
			fmt.Fprintf(out, "sizing:     max flows at B=%.4g: %d\n", p.B, nMax)
		}
		if gi, err := core.MaxGiForBuffer(p); err == nil {
			fmt.Fprintf(out, "sizing:     max Gi: %.6g\n", gi)
		}
		if gd, err := core.MinGdForBuffer(p); err == nil {
			fmt.Fprintf(out, "sizing:     min Gd: %.6g (1/%.4g)\n", gd, 1/gd)
		}
		if q0, err := core.MaxQ0ForBuffer(p); err == nil {
			fmt.Fprintf(out, "sizing:     max q0: %.6g bits\n", q0)
		}
	}
	if *trans {
		m, err := core.Transient(p, 0.05)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "transient:  overshoot=%.2f%%  undershoot=%.2f%%\n",
			100*m.OvershootRatio, 100*m.UndershootRatio)
		if m.RiseTimeValid {
			fmt.Fprintf(out, "transient:  rise time=%.4g s\n", m.RiseTime)
		}
		if m.PeriodValid {
			fmt.Fprintf(out, "transient:  oscillation period=%.4g s\n", m.OscillationPeriod)
		}
		if m.SettleValid {
			fmt.Fprintf(out, "transient:  settle to ±5%% of q0 ≈ %.4g s\n", m.SettleTime)
		}
	}

	if *svg != "" {
		chart := plot.NewChart("BCN phase portrait", "x = q - q0 (bits)", "y = N*r - C (bits/s)")
		chart.AddXY("trajectory", tr.X, tr.Y)
		chart.AddVLine(-p.Q0, "q=0", "#cc0000")
		chart.AddVLine(p.B-p.Q0, "q=B", "#cc0000")
		chart.AddMarker(plot.Marker{X: 0, Y: 0, Label: "equilibrium", Color: "#009e73"})
		// Render fully in memory, then publish atomically: a failed
		// render or a crash never leaves a truncated SVG behind.
		doc, err := chart.RenderBytes()
		if err != nil {
			return err
		}
		if err := runstate.WriteFileAtomic(*svg, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "phase portrait written to %s\n", *svg)
	}
	return nil
}
