// Command bcnsweep sweeps the gain plane (Gi, Gd) and prints a CSV of the
// three stability verdicts per grid point: the linear criterion of [4],
// the Theorem 1 sufficient condition, and the stitched-trajectory ground
// truth.
//
// With -resume <dir> the run is crash-safe: every span of grid points is
// journaled (append-only JSONL WAL keyed by a content hash of the sweep
// config and point params, one fsync per span) before it counts as done,
// SIGINT/SIGTERM drain in-flight spans and exit with the distinct
// "interrupted, resumable" status 130, and re-running with the same
// -resume dir skips journaled points and replays their cached rows — an
// interrupted run resumed to completion produces byte-identical output
// (stdout and <dir>/map.csv) to a never-interrupted one.
//
// With -cluster <coordinator-url> the grid is not evaluated locally at
// all: it is submitted to a bcnd coordinator (see internal/cluster),
// which shards it across its worker fleet and streams back the merged
// map.csv — byte-identical to what the same flags would produce
// locally, because both sides share one canonical row evaluator.
//
// Examples:
//
//	bcnsweep -b-over-q0 5 -gi-lo 0.05 -gi-hi 12.8 -steps 12 -resume out/run1 > map.csv
//	bcnsweep -steps 23 -cluster http://127.0.0.1:8070 > map.csv
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bcnphase/internal/analytic"
	"bcnphase/internal/cluster"
	"bcnphase/internal/invariant"
	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
	"bcnphase/internal/sweep"
	"bcnphase/internal/telemetry"
)

func main() {
	ctx, stop, fired := runstate.TrapSignals(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		if fired() || runstate.Interrupted(err) {
			fmt.Fprintln(os.Stderr, "bcnsweep:", err)
			os.Exit(runstate.ExitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "bcnsweep:", err)
		os.Exit(1)
	}
}

// The grid canon (point enumeration, identity fingerprint, journal
// keys, row evaluation, CSV layout) lives in internal/cluster so this
// command, the bcnd shard executor and the cluster coordinator cannot
// drift apart; these aliases keep bcnsweep's vocabulary.
type (
	gainPoint = cluster.GainPoint
	row       = cluster.Row
)

// spanSize is the span length the local sweep hands one worker slot at
// a time (see cluster.GainGrid.EvalBatch). With -resume it is also the
// unit of journaling: an interrupted run re-executes at most workers ×
// spanSize points on resume.
const spanSize = 64

// evalHook, when non-nil, observes every fresh (non-replayed) point as
// its span starts; tests use it to count executions and to interrupt
// the sweep cooperatively partway through.
var evalHook func(gainPoint)

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcnsweep", flag.ContinueOnError)
	var (
		bOverQ0  = fs.Float64("b-over-q0", 5, "buffer size as a multiple of q0")
		giLo     = fs.Float64("gi-lo", 0.05, "Gi sweep lower bound")
		giHi     = fs.Float64("gi-hi", 12.8, "Gi sweep upper bound")
		gdLo     = fs.Float64("gd-lo", 1.0/1024, "Gd sweep lower bound")
		gdHi     = fs.Float64("gd-hi", 0.5, "Gd sweep upper bound")
		steps    = fs.Int("steps", 10, "grid points per axis")
		workers  = fs.Int("workers", 0, "parallel evaluations (0 = GOMAXPROCS)")
		timeout  = fs.Duration("point-timeout", time.Minute, "hard deadline per grid point (0 = none)")
		resume   = fs.String("resume", "", "run directory holding the journal; completed points are skipped on restart and map.csv is written here")
		invPol   = fs.String("invariants", "off", "runtime invariant checking per point: off, record, strict or clamp")
		telem    = fs.String("telemetry", "", "directory to write telemetry.json (metrics summary) and trace.jsonl")
		clusterC = fs.String("cluster", "", "submit the grid to a bcnd coordinator instead of evaluating locally; comma-separated URLs name an HA replica group and the client fails over between them")
		tenant   = fs.String("tenant", "", "cluster mode: tenant key sent as Bcn-Tenant (empty = anonymous)")
		deadline = fs.Duration("deadline", 0, "cluster mode: end-to-end deadline budget sent as Bcn-Deadline-Ms (0 = none)")
	)
	if help, err := runstate.ParseFlags(fs, args, out); help || err != nil {
		return err
	}
	if *steps < 2 {
		return fmt.Errorf("steps must be >= 2, got %d", *steps)
	}
	// The registry always exists: the engine summary line reads the
	// analytic arc counters even without -telemetry. With -telemetry the
	// same registry is additionally dumped as a JSON metrics summary plus
	// a span trace on every exit path, including an interrupted
	// (resumable) one.
	var (
		reg    = telemetry.NewRegistry()
		tracer *telemetry.Tracer
		began  = time.Now()
		done   int
	)
	pps := reg.Gauge("bcnsweep_points_per_second", "fresh grid points evaluated per wall-clock second")
	if *telem != "" {
		if err := runstate.EnsureWritableDir(*telem); err != nil {
			return fmt.Errorf("telemetry preflight: %w", err)
		}
		tracer = telemetry.NewTracer(0, nil)
		span := tracer.Start("bcnsweep/run")
		defer func() {
			span.SetAttr("points_done", fmt.Sprint(done))
			span.End()
			if err := telemetry.DumpDir(*telem, "bcnsweep", time.Since(began).Seconds(), reg, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "bcnsweep: telemetry:", err)
			}
		}()
	}
	defer func() {
		if wall := time.Since(began).Seconds(); wall > 0 {
			pps.Set(float64(done) / wall)
		}
	}()
	analyticMetrics := analytic.NewMetrics(reg)
	policy, err := invariant.ParsePolicy(*invPol)
	if err != nil {
		return err
	}
	grid := cluster.GainGrid{
		BOverQ0: *bOverQ0,
		GiLo:    *giLo, GiHi: *giHi,
		GdLo: *gdLo, GdHi: *gdHi,
		Steps:      *steps,
		Invariants: policy.String(),
	}
	if base := grid.Base(); base.B <= base.Q0 {
		return fmt.Errorf("buffer multiple %v leaves B <= q0", *bOverQ0)
	}
	if err := grid.Validate(); err != nil {
		return err
	}
	if *clusterC != "" {
		var bases []string
		for _, u := range strings.Split(*clusterC, ",") {
			if u = strings.TrimSpace(u); u != "" {
				bases = append(bases, strings.TrimRight(u, "/"))
			}
		}
		if len(bases) == 0 {
			return fmt.Errorf("-cluster lists no coordinator URLs")
		}
		done, err = runCluster(ctx, bases, grid, *resume, *tenant, *deadline, out)
		return err
	}

	points := grid.Points()
	em := cluster.EvalMetrics{Analytic: analyticMetrics}

	// With -resume, rows are journaled a span at a time and replayed (not
	// re-executed) on restart; without it the journal stays nil and the
	// runner is plain sweep.RunBatched.
	var journal *runstate.Journal
	if *resume != "" {
		if journal, err = runstate.OpenDir(*resume); err != nil {
			return err
		}
		defer journal.Close()
	}

	// Continue past bad points: every healthy row is still emitted in
	// grid order, failures are summarized, and the exit status reflects
	// the degradation. Points go out in spans per worker slot so one warm
	// analytic Solver (and one supervision round, and one journal fsync)
	// serves a whole span.
	opts := sweep.Options{
		Workers:         *workers,
		PointTimeout:    *timeout,
		ContinueOnError: true,
		Metrics:         sweep.NewMetrics(reg),
	}
	// The hook is read once, here: a span goroutine abandoned on cancel
	// may outlive run, and must not read the package variable then.
	hook := evalHook
	results, err := grid.RunJournaled(ctx, points, spanSize,
		func(ctx context.Context, pts []gainPoint, rows []row) error {
			if hook != nil {
				for _, pt := range pts {
					hook(pt)
				}
			}
			return grid.EvalBatch(ctx, pts, rows, em)
		}, opts, journal)
	if results == nil && err != nil {
		return err
	}

	var (
		rows        []row
		failed      []string
		interrupted int
	)
	for _, r := range results {
		switch {
		case r.Err == nil:
			rows = append(rows, r.Value)
			done++
		case ctx.Err() != nil && runstate.Interrupted(r.Err):
			// Drained by the run-level shutdown. A per-point deadline
			// (Options.PointTimeout) also surfaces as a context error but
			// with the parent context still live — that is a point
			// failure, not an interruption.
			interrupted++
		default:
			failed = append(failed, fmt.Sprintf("Gi=%g Gd=%g: %v", r.Point.Gi, r.Point.Gd, r.Err))
		}
	}
	csv := cluster.RenderCSV(rows)
	if _, err := out.Write(csv); err != nil {
		return fmt.Errorf("write map.csv: %w", err)
	}
	for _, f := range failed {
		fmt.Fprintln(os.Stderr, "bcnsweep: point failed:", f)
	}
	if tally := sweep.TallyViolations(results); tally.Total > 0 {
		fmt.Fprintf(os.Stderr, "bcnsweep: invariants: %d of %d points dirty, %d violations total (by first predicate: %v)\n",
			tally.Dirty, tally.Points, tally.Total, tally.ByPredicate)
	}

	// Rate and engine summary: how fast the grid went and which stepper
	// stitched its arcs. rk45 arcs can only come from the engine's
	// non-finite fallback: nonzero counts deserve a look.
	if wall := time.Since(began).Seconds(); wall > 0 {
		fmt.Fprintf(os.Stderr, "bcnsweep: %d points in %.3gs (%.4g points/sec); arcs: analytic=%d rk45=%d (fallbacks=%d)\n",
			done, wall, float64(done)/wall,
			analyticMetrics.Arcs.With("analytic").Value(),
			analyticMetrics.Arcs.With("rk45").Value(),
			analyticMetrics.RK45Fallbacks.Value())
	}

	// An interrupted sweep exits resumable without publishing map.csv —
	// the journal already holds every completed span durably.
	if ctx.Err() != nil {
		hint := "re-run with -resume to continue"
		if *resume != "" {
			hint = fmt.Sprintf("re-run with -resume %s to continue", *resume)
		}
		err := fmt.Errorf("%w: %d of %d points done, %d pending (%s)",
			runstate.ErrInterrupted, done, len(points), interrupted, hint)
		if len(failed) > 0 {
			return errors.Join(err, fmt.Errorf("%d points failed (first: %s)", len(failed), failed[0]))
		}
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d grid points failed (first: %s)", len(failed), len(points), failed[0])
	}
	// Publish the completed map atomically into the run directory: the
	// whole sweep either has a complete map.csv or none.
	if *resume != "" {
		if err := runstate.WriteFileAtomic(filepath.Join(*resume, "map.csv"), csv, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// failoverRetryBase/Cap bound the backoff between full fruitless laps
// of the replica list. Deliberately much shorter than the shed pacer:
// a leaderless window is an election interval (sub-second), not an
// overload Retry-After. Vars so tests can tighten them.
var (
	failoverRetryBase = 250 * time.Millisecond
	failoverRetryCap  = 2 * time.Second
)

// runCluster submits the grid to a bcnd coordinator group and streams
// the merged map.csv to out. With several base URLs (an HA replica
// group) the client fails over: a transport error, a connection lost
// mid-stream, or a Bcn-Not-Leader redirect moves it to the next
// replica (or straight to the hinted leader), and the resubmission is
// idempotent by construction — the sweep fingerprint coalesces onto
// any run already in flight and journaled points replay instead of
// re-executing. Shed/drain answers are retried politely (Retry-After
// honored with jitter, capped backoff). The tenant key and deadline
// budget ride the QoS headers; the deadline is fixed at the first
// attempt so retries spend the original budget rather than minting a
// new one. Returns the number of freshly evaluated points the
// answering coordinator reported.
func runCluster(ctx context.Context, bases []string, grid cluster.GainGrid, resumeDir, tenant string, deadline time.Duration, out io.Writer) (int, error) {
	body, err := json.Marshal(grid)
	if err != nil {
		return 0, err
	}
	if resumeDir != "" {
		if err := runstate.EnsureWritableDir(resumeDir); err != nil {
			return 0, fmt.Errorf("preflight: %w", err)
		}
	}
	var deadlineAt time.Time
	if deadline > 0 {
		deadlineAt = time.Now().Add(deadline)
	}
	maxAttempts := 8 * len(bases)
	pacer := cluster.NewRetryPacer(500*time.Millisecond, 15*time.Second, 0)
	lapPacer := cluster.NewRetryPacer(failoverRetryBase, failoverRetryCap, 0)
	cur := 0
	override := ""    // one-shot target from a Bcn-Not-Leader hint
	unreachable := "" // last base that failed at the transport level
	// failover rotates to the next replica; after a full fruitless lap
	// it backs off so a briefly leaderless group (mid-election) is not
	// hammered.
	failover := func(attempt int, why string) error {
		cur = (cur + 1) % len(bases)
		fmt.Fprintf(os.Stderr, "bcnsweep: %s; failing over to %s (attempt %d/%d)\n",
			why, bases[cur], attempt, maxAttempts)
		if attempt%len(bases) != 0 {
			return nil
		}
		wait := lapPacer.Next(0)
		select {
		case <-time.After(wait):
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: cluster submission cancelled", runstate.ErrInterrupted)
		}
	}
	for attempt := 1; ; attempt++ {
		target := bases[cur]
		if override != "" {
			target, override = override, ""
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/sweeps", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(qos.TenantHeader, tenant)
		}
		if !deadlineAt.IsZero() {
			rem := time.Until(deadlineAt)
			if rem <= 0 {
				return 0, fmt.Errorf("deadline budget spent before attempt %d", attempt)
			}
			req.Header.Set(qos.DeadlineHeader, qos.FormatDeadline(rem))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return 0, fmt.Errorf("%w: cluster submission cancelled", runstate.ErrInterrupted)
			}
			if attempt >= maxAttempts {
				return 0, fmt.Errorf("coordinator %s unreachable after %d attempts: %w", target, attempt, err)
			}
			unreachable = target
			if ferr := failover(attempt, fmt.Sprintf("coordinator %s unreachable (%v)", target, err)); ferr != nil {
				return 0, ferr
			}
			continue
		}
		if target == unreachable {
			unreachable = "" // it answered; stop distrusting it
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			// Connection lost mid-stream — the classic leader-death-during-
			// response. The resubmission is idempotent, so fail over rather
			// than give up with a half map.
			if attempt >= maxAttempts {
				return 0, fmt.Errorf("response from %s cut short after %d attempts: %w", target, attempt, rerr)
			}
			unreachable = target
			if ferr := failover(attempt, fmt.Sprintf("response from %s cut short (%v)", target, rerr)); ferr != nil {
				return 0, ferr
			}
			continue
		}
		switch {
		case resp.StatusCode == http.StatusMisdirectedRequest && attempt < maxAttempts:
			// A standby answered. Follow its leader hint when it has one —
			// unless the hint names the base we just failed to reach (a
			// standby's view of the leader outlives the leader; chasing it
			// through connection-refused burns the whole attempt budget
			// during an election). Otherwise rotate until a leader emerges.
			hint := strings.TrimRight(resp.Header.Get(cluster.NotLeaderHeader), "/")
			if hint != "" && hint != target && hint != unreachable {
				override = hint
				fmt.Fprintf(os.Stderr, "bcnsweep: %s is not the leader; following its hint to %s\n", target, hint)
				continue
			}
			why := fmt.Sprintf("%s is not the leader and knows no better", target)
			if hint != "" && hint == unreachable {
				why = fmt.Sprintf("%s still hints at unreachable %s", target, hint)
			}
			if ferr := failover(attempt, why); ferr != nil {
				return 0, ferr
			}
		case resp.StatusCode == http.StatusOK:
			fresh, _ := strconv.Atoi(resp.Header.Get("Bcn-Fresh"))
			fmt.Fprintf(os.Stderr, "bcnsweep: cluster sweep %.12s done: points=%s fresh=%d replayed=%s orphan-shards=%s audited-shards=%s\n",
				resp.Header.Get("Bcn-Fingerprint"), resp.Header.Get("Bcn-Points"), fresh,
				resp.Header.Get("Bcn-Replayed"), resp.Header.Get("Bcn-Orphan-Shards"),
				resp.Header.Get("Bcn-Audited-Shards"))
			if _, err := out.Write(raw); err != nil {
				return fresh, err
			}
			if resumeDir != "" {
				if err := runstate.WriteFileAtomic(filepath.Join(resumeDir, "map.csv"), raw, 0o644); err != nil {
					return fresh, err
				}
			}
			return fresh, nil
		case cluster.RetryableStatus(resp.StatusCode) && attempt < maxAttempts:
			// The pacer jitters the coordinator's Retry-After hint so a herd
			// of shed submitters does not re-collide on the same instant.
			wait := pacer.Next(qos.RetryAfter(resp.Header))
			fmt.Fprintf(os.Stderr, "bcnsweep: coordinator answered %d; retry %d/%d in %s\n",
				resp.StatusCode, attempt, maxAttempts-1, wait.Round(time.Millisecond))
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return 0, fmt.Errorf("%w: cluster submission cancelled", runstate.ErrInterrupted)
			}
		case resp.StatusCode == http.StatusInternalServerError && len(bases) > 1 && attempt < maxAttempts:
			// A sweep that died with its leader (lease lost, workers
			// unreachable) answers 500; with an HA group another replica
			// can finish it, so fail over instead of giving up.
			if ferr := failover(attempt, fmt.Sprintf("sweep failed on %s: %s", target, strings.TrimSpace(string(raw)))); ferr != nil {
				return 0, ferr
			}
		default:
			return 0, fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		}
	}
}
