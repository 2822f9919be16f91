// Command bcnreport regenerates every figure and result of the paper's
// evaluation into an output directory: SVG charts, CSV series and textual
// summaries, one set per experiment in DESIGN.md's index. Artifacts are
// published atomically; SIGINT/SIGTERM or an expired -timeout stop the
// batch at the next experiment boundary with the completed artifacts
// intact and exit with the resumable status 130.
//
// Example:
//
//	bcnreport -out out/ -timeout 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bcnphase/internal/experiments"
	"bcnphase/internal/invariant"
	"bcnphase/internal/runstate"
)

func main() {
	ctx, stop, fired := runstate.TrapSignals(context.Background())
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		if fired() || runstate.Interrupted(err) {
			fmt.Fprintln(os.Stderr, "bcnreport:", err)
			os.Exit(runstate.ExitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "bcnreport:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bcnreport", flag.ContinueOnError)
	var (
		out     = fs.String("out", "out", "output directory")
		only    = fs.String("only", "", "run a single experiment by ID (e.g. fig6)")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		md      = fs.Bool("md", false, "also write RESULTS.md (markdown) into the output directory")
		invPol  = fs.String("invariants", "off", "runtime invariant checking for every solved trajectory: off, record, strict or clamp")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole batch; on expiry completed artifacts are kept and the exit status is the resumable 130 (0 = none)")
	)
	if help, err := runstate.ParseFlags(fs, args, os.Stdout); help || err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	policy, err := invariant.ParsePolicy(*invPol)
	if err != nil {
		return err
	}
	experiments.InvariantPolicy = policy
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.What)
		}
		return nil
	}
	// Preflight: prove the output directory is usable before burning
	// minutes of computation on experiments whose artifacts can't land.
	if err := runstate.EnsureWritableDir(*out); err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	if *only != "" {
		for _, e := range experiments.Registry() {
			if e.ID != *only {
				continue
			}
			// The single-experiment path honors the same deadline as the
			// batch: an expired budget is an interruption, not a failure.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w: stopped before experiment %s: %v", runstate.ErrInterrupted, e.ID, err)
			}
			rep, err := experiments.SafeRun(e)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, err)
			}
			if err := rep.WriteFiles(*out); err != nil {
				return err
			}
			if *md {
				path := filepath.Join(*out, "RESULTS.md")
				if err := runstate.WriteFileAtomic(path, []byte(rep.Markdown()), 0o644); err != nil {
					return err
				}
			}
			fmt.Print(rep.Text())
			return nil
		}
		return fmt.Errorf("unknown experiment %q (use -list)", *only)
	}
	// Completed experiments keep their artifacts and summary even when
	// some fail or the run is interrupted; failures surface in the exit
	// status afterwards.
	summary, reports, runErr := experiments.RunAllContext(ctx, *out)
	if *md {
		var b strings.Builder
		b.WriteString("# Regenerated results\n\n")
		for _, rep := range reports {
			b.WriteString(rep.Markdown())
		}
		path := filepath.Join(*out, "RESULTS.md")
		if err := runstate.WriteFileAtomic(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Print(summary)
	fmt.Printf("artifacts written to %s\n", *out)
	if runErr != nil {
		if runstate.Interrupted(runErr) {
			return runErr
		}
		return fmt.Errorf("completed with failures: %w", runErr)
	}
	return nil
}
