// Command bcnd is the supervised simulation service: an HTTP daemon
// that accepts solve, sweep and netsim job specs as validated JSON,
// executes them on a bounded worker pool, and degrades gracefully under
// overload and partial failure (see internal/serve).
//
// Admission is bounded: when the waiting room is full new submissions
// are shed with 429, Retry-After and live queue-depth/utilization
// feedback. Jobs are deduplicated by content hash — resubmitting a
// completed job returns the journaled artifact byte-identically — and
// parameter regions that repeatedly abort under the strict invariant
// policy are quarantined by a circuit breaker. SIGINT/SIGTERM drain
// gracefully: admission stops (503), accepted jobs finish, the journal
// is already durable record-by-record, and the process exits 0.
//
// With -coordinator the same binary becomes a cluster sweep
// coordinator instead: it shards gain-plane grids across a fleet of
// ordinary bcnd workers (consistent hashing, work stealing, lease and
// heartbeat driven re-assignment, per-worker circuit breakers) and
// merges the results into one map.csv — see internal/cluster.
//
// Examples:
//
//	bcnd -addr 127.0.0.1:8077 -journal out/bcnd
//	bcnd -selftest
//	bcnd -url http://127.0.0.1:8077 -post job.json
//	bcnd -url http://127.0.0.1:8077 -get <key>
//	bcnd -coordinator -workers http://h1:8077,http://h2:8077 -journal out/coord
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/invariant"
	"bcnphase/internal/qos"
	"bcnphase/internal/runstate"
	"bcnphase/internal/serve"
	"bcnphase/internal/telemetry"
)

func main() {
	ctx, stop, fired := runstate.TrapSignals(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		if fired() || runstate.Interrupted(err) {
			fmt.Fprintln(os.Stderr, "bcnd:", err)
			os.Exit(runstate.ExitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "bcnd:", err)
		os.Exit(1)
	}
}

// startedHook, when non-nil, receives the bound listen address once the
// server is accepting; tests use it to reach an ephemeral port.
var startedHook func(addr string)

// newHTTPServer wraps a handler with the slow-client limits every
// listener in this binary must carry: a bounded header read so a peer
// that connects and never finishes its request line cannot pin a
// connection forever, and an idle timeout so abandoned keep-alive
// connections are reclaimed. Request bodies are bounded per-handler
// (MaxBytesReader), not here, because job execution legitimately
// outlives any fixed whole-request deadline.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcnd", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned; keep usage noise out of test output
	var (
		addr = fs.String("addr", "127.0.0.1:8077", "listen address")
		// -workers is overloaded by mode: a pool size in server mode, a
		// comma-separated list of worker base URLs in coordinator mode.
		workers      = fs.String("workers", "", "server mode: concurrently executing jobs (0/empty = default); coordinator mode: comma-separated worker base URLs")
		queueCap     = fs.Int("queue", 0, "admission queue capacity (0 = 4x workers)")
		journalDir   = fs.String("journal", "", "run directory for the artifact journal; empty keeps artifacts in memory only")
		invPol       = fs.String("invariants", "off", "invariant policy for jobs that name none: off, record, strict or clamp")
		defTimeout   = fs.Duration("default-timeout", 30*time.Second, "per-job budget when the spec names none")
		maxTimeout   = fs.Duration("max-timeout", 2*time.Minute, "cap on the per-job budget a spec may request")
		brkFailures  = fs.Int("breaker-failures", 3, "consecutive strict aborts that quarantine a parameter region (negative disables)")
		brkCooldown  = fs.Duration("breaker-cooldown", 30*time.Second, "quarantine length for a tripped region")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for accepted jobs")
		selftest     = fs.Bool("selftest", false, "run the canary suite against an ephemeral in-process server and exit")
		telem        = fs.String("telemetry", "", "directory to dump telemetry.json (final metrics snapshot) and trace.jsonl at drain")
		clientURL    = fs.String("url", "http://127.0.0.1:8077", "server base URL for -post/-get client modes")
		postFile     = fs.String("post", "", "client mode: submit the spec in this file (- for stdin) and print the artifact")
		getKey       = fs.String("get", "", "client mode: fetch the artifact for this job key and print it")
		postRetries  = fs.Int("post-retries", 4, "client mode: extra attempts when the server sheds with 429/503 (Retry-After honored, jittered)")
		tenant       = fs.String("tenant", "", "client mode: tenant key sent as Bcn-Tenant (empty = anonymous)")
		qosClass     = fs.String("qos-class", "", "client mode: QoS class sent as Bcn-QoS-Class (interactive, standard, batch)")
		deadline     = fs.Duration("deadline", 0, "client mode: end-to-end deadline budget sent as Bcn-Deadline-Ms (0 = none)")
		coordinator  = fs.Bool("coordinator", false, "run as a cluster sweep coordinator over the -workers URLs instead of a job server")
		shardSize    = fs.Int("shard-size", 0, "coordinator mode: grid points per shard (0 = default)")
		leaseTimeout = fs.Duration("lease-timeout", 30*time.Second, "coordinator mode: per-dispatch shard lease; an unanswered shard is re-assigned after this")
		hbInterval   = fs.Duration("heartbeat-interval", time.Second, "coordinator mode: worker /statusz probe interval")
		maxSweeps    = fs.Int("max-sweeps", 2, "coordinator mode: concurrent sweeps before submissions are shed")
		auditFrac    = fs.Float64("audit-fraction", 0, "coordinator mode: fraction of completed shards re-executed on a second worker and compared bit-exactly (0 disables auditing, 1 audits everything)")
		peers        = fs.String("peers", "", "coordinator HA: comma-separated base URLs of the other coordinator replicas; enables lease-based leader election, journal replication and failover")
		selfURL      = fs.String("self", "", "coordinator HA: this replica's advertised base URL (required with -peers)")
		leaseTTL     = fs.Duration("lease-ttl", 3*time.Second, "coordinator HA: leadership lease TTL granted by the worker witnesses")

		// Closed-loop QoS (server mode; see internal/qos).
		qosOn      = fs.Bool("qos", false, "server mode: enable the closed-loop QoS layer — adaptive admission, brownout ladder, per-tenant fairness, deadline propagation")
		qosAlpha   = fs.Float64("qos-alpha", 0, "QoS: rate-mismatch feedback gain alpha (0 = default; stability needs alpha^2 < 4*beta)")
		qosBeta    = fs.Float64("qos-beta", 0, "QoS: queue-excursion feedback gain beta (0 = default)")
		qosTick    = fs.Duration("qos-interval", 0, "QoS: control-loop tick interval (0 = default)")
		qosTarget  = fs.Float64("qos-queue-target", 0, "QoS: queue-depth operating point q0 (0 = half the queue capacity)")
		qosHeap    = fs.Int64("qos-max-heap", 0, "QoS: live-heap bytes forcing cached-only brownout, 1.5x forces drain (0 disables)")
		qosGoros   = fs.Int("qos-max-goroutines", 0, "QoS: goroutine count forcing cached-only brownout (0 = default 20000, negative disables)")
		tenWeights = fs.String("tenant-weights", "", "QoS: per-tenant scheduling weights as name=weight pairs, comma-separated")
		tenBurst   = fs.Float64("tenant-burst", 0, "QoS: per-tenant bucket burst in seconds of fair-share rate (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *postFile != "" && *getKey != "":
		return fmt.Errorf("-post and -get are mutually exclusive")
	case *postFile != "":
		return clientPost(ctx, *clientURL, *postFile, *postRetries,
			clientQoS{tenant: *tenant, class: *qosClass, deadline: *deadline}, out)
	case *getKey != "":
		return clientGet(ctx, *clientURL, *getKey, out)
	}
	if *coordinator {
		return runCoordinator(ctx, coordOptions{
			addr: *addr, workers: *workers, journalDir: *journalDir,
			shardSize: *shardSize, leaseTimeout: *leaseTimeout,
			hbInterval: *hbInterval, maxSweeps: *maxSweeps,
			drainTimeout: *drainTimeout, auditFraction: *auditFrac,
			peers: *peers, self: *selfURL, leaseTTL: *leaseTTL,
		}, out)
	}
	if *peers != "" || *selfURL != "" {
		return fmt.Errorf("-peers and -self are coordinator HA flags; add -coordinator")
	}

	poolWorkers := 0
	if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil {
			return fmt.Errorf("-workers %q: want a pool size in server mode (URL lists are for -coordinator)", *workers)
		}
		poolWorkers = n
	}
	policy, err := invariant.ParsePolicy(*invPol)
	if err != nil {
		return err
	}
	if *telem != "" {
		if err := runstate.EnsureWritableDir(*telem); err != nil {
			return fmt.Errorf("telemetry preflight: %w", err)
		}
	}
	cfg := serve.Config{
		Workers:          poolWorkers,
		QueueCap:         *queueCap,
		DefaultTimeout:   *defTimeout,
		MaxTimeout:       *maxTimeout,
		BreakerThreshold: *brkFailures,
		BreakerCooldown:  *brkCooldown,
		Invariants:       policy,
		Registry:         telemetry.NewRegistry(),
		Log:              os.Stderr,
	}
	if *qosOn {
		weights, err := parseTenantWeights(*tenWeights)
		if err != nil {
			return err
		}
		cfg.QoS = &qos.Config{
			Controller: qos.ControllerConfig{
				Alpha:       *qosAlpha,
				Beta:        *qosBeta,
				Interval:    *qosTick,
				QueueTarget: *qosTarget,
			},
			Brownout: qos.BrownoutConfig{
				MaxHeapBytes:  *qosHeap,
				MaxGoroutines: *qosGoros,
			},
			Tenant: qos.TenantConfig{
				Weights:      weights,
				BurstSeconds: *tenBurst,
			},
		}
	}
	var journal *runstate.Journal
	if *journalDir != "" {
		if err := runstate.EnsureWritableDir(*journalDir); err != nil {
			return fmt.Errorf("preflight: %w", err)
		}
		journal, err = runstate.OpenJournal(filepath.Join(*journalDir, runstate.JournalFileName))
		if err != nil {
			return err
		}
		defer journal.Close()
		if d := journal.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "bcnd: journal replay dropped %d corrupt records\n", d)
		}
		fmt.Fprintf(out, "bcnd: journal %s replayed %d artifacts\n", journal.Path(), journal.Len())
		cfg.Cache = journal
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close() // stops the QoS control loop; no-op without -qos
	// The final metrics snapshot and span trace are dumped on every exit
	// path — clean drain, failed drain, selftest — so a post-mortem
	// always has the last state the process saw.
	if *telem != "" {
		start := time.Now()
		defer func() {
			if err := telemetry.DumpDir(*telem, "bcnd", time.Since(start).Seconds(), srv.Registry(), srv.Tracer()); err != nil {
				fmt.Fprintln(os.Stderr, "bcnd: telemetry:", err)
			}
		}()
	}
	if *selftest {
		return runSelftest(ctx, srv, out)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bcnd: listening on %s\n", ln.Addr())
	if startedHook != nil {
		startedHook(ln.Addr().String())
	}
	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("bcnd: serve: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (503 + Retry-After), let accepted
	// jobs finish — every completed one is already fsynced in the
	// journal — then stop the listener. A clean drain exits 0; one that
	// outlives the deadline exits with the resumable status instead of
	// pretending it finished.
	fmt.Fprintln(out, "bcnd: signal received, draining")
	srv.Drain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.WaitIdle(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("%w: %v", runstate.ErrInterrupted, err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("%w: shutdown: %v", runstate.ErrInterrupted, err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return err
		}
	}
	st := srv.StatusSnapshot()
	fmt.Fprintf(out, "bcnd: drained cleanly: accepted=%d completed=%d failed=%d shed=%d artifacts=%d\n",
		st.Accepted, st.Completed, st.Failed, st.Shed, st.JournalLen)
	return nil
}

// parseTenantWeights parses the -tenant-weights flag: comma-separated
// name=weight pairs, e.g. "acme=3,batchfarm=0.5". Weights must be
// positive; unnamed tenants keep the default weight of 1.
func parseTenantWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights %q: want name=weight pairs", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights %q: weight must be a positive number", pair)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

// runSelftest drives canary jobs of every kind through the full HTTP
// stack on an ephemeral port: success, byte-identical resubmit,
// malformed rejection and the health endpoints. It is the deploy-time
// "is this binary sane" check.
func runSelftest(ctx context.Context, srv *serve.Server, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	canaries := []struct {
		name string
		spec serve.Spec
	}{
		{"solve", serve.Spec{Kind: serve.KindSolve, Solve: &serve.SolveSpec{Params: core.PaperExample()}}},
		{"sweep", serve.Spec{Kind: serve.KindSweep, Sweep: &serve.SweepSpec{
			BOverQ0: 5, GiLo: 0.05, GiHi: 1, GdLo: 1.0 / 512, GdHi: 0.1, Steps: 2,
		}}},
		{"netsim", serve.Spec{Kind: serve.KindNetsim, Netsim: &serve.NetsimSpec{
			N: 4, Capacity: 1e9, BufferBits: 4e6, Q0: 5e5, DurationSec: 0.002, Seed: 1,
		}}},
	}
	for _, c := range canaries {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: selftest interrupted", runstate.ErrInterrupted)
		}
		body, err := json.Marshal(c.spec)
		if err != nil {
			return err
		}
		first, hdr, err := postOnce(ctx, base, body)
		if err != nil {
			return fmt.Errorf("selftest %s: %w", c.name, err)
		}
		again, hdr2, err := postOnce(ctx, base, body)
		if err != nil {
			return fmt.Errorf("selftest %s resubmit: %w", c.name, err)
		}
		if hdr2.Get("X-Cache") != "hit" || !bytes.Equal(first, again) {
			return fmt.Errorf("selftest %s: resubmit not served byte-identically from cache (cache=%q)", c.name, hdr2.Get("X-Cache"))
		}
		fmt.Fprintf(out, "bcnd: selftest ok: %s (key %s)\n", c.name, hdr.Get("X-Job-Key"))
	}
	// Malformed input must be a 400, never a 500.
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte("{{{")))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("selftest: malformed spec got %d, want 400", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/readyz", "/statusz", "/metrics", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("selftest: %s got %d", path, resp.StatusCode)
		}
	}
	fmt.Fprintln(out, "bcnd: selftest ok: malformed-rejection and health endpoints")
	return nil
}

func postOnce(ctx context.Context, base string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return raw, resp.Header, nil
}

// coordOptions carries the coordinator-mode flag values.
type coordOptions struct {
	addr          string
	workers       string
	journalDir    string
	shardSize     int
	leaseTimeout  time.Duration
	hbInterval    time.Duration
	maxSweeps     int
	drainTimeout  time.Duration
	auditFraction float64
	// HA replica options: -peers turns the coordinator into one replica
	// of a highly-available group (see DESIGN.md §5i).
	peers    string
	self     string
	leaseTTL time.Duration
}

// parseURLList splits a comma-separated base-URL list, trimming
// whitespace and trailing slashes and rejecting non-http(s) entries.
func parseURLList(flagName, raw string) ([]string, error) {
	var urls []string
	for _, u := range strings.Split(raw, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	for _, u := range urls {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("%s: %q is not an http(s) base URL", flagName, u)
		}
	}
	return urls, nil
}

// runCoordinator serves the cluster coordinator until a signal drains
// it. The journal (when configured) makes sweeps crash-safe: a restart
// replays every journaled point and re-executes only what is missing.
func runCoordinator(ctx context.Context, opt coordOptions, out io.Writer) error {
	urls, err := parseURLList("-workers", opt.workers)
	if err != nil {
		return err
	}
	if len(urls) == 0 {
		return fmt.Errorf("-coordinator needs -workers with at least one worker base URL")
	}
	if opt.peers != "" {
		return runHACoordinator(ctx, opt, urls, out)
	}
	if opt.self != "" {
		return fmt.Errorf("-self only applies with -peers (coordinator HA)")
	}
	ccfg := cluster.Config{
		Workers:           urls,
		ShardSize:         opt.shardSize,
		LeaseTimeout:      opt.leaseTimeout,
		HeartbeatInterval: opt.hbInterval,
		AuditFraction:     opt.auditFraction,
		Log:               os.Stderr,
	}
	if opt.journalDir != "" {
		if err := runstate.EnsureWritableDir(opt.journalDir); err != nil {
			return fmt.Errorf("preflight: %w", err)
		}
		journal, err := runstate.OpenJournal(filepath.Join(opt.journalDir, runstate.JournalFileName))
		if err != nil {
			return err
		}
		defer journal.Close()
		if d := journal.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "bcnd: journal replay dropped %d corrupt records\n", d)
		}
		fmt.Fprintf(out, "bcnd: coordinator journal %s replayed %d records\n", journal.Path(), journal.Len())
		ccfg.Journal = journal
		ccfg.MapPath = filepath.Join(opt.journalDir, "map.csv")
	}
	coord, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	csrv, err := cluster.NewServer(cluster.ServerConfig{
		Coordinator: coord,
		MaxSweeps:   opt.maxSweeps,
		Log:         os.Stderr,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bcnd: coordinating %d workers on %s\n", len(urls), ln.Addr())
	if startedHook != nil {
		startedHook(ln.Addr().String())
	}
	hs := newHTTPServer(csrv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("bcnd: serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "bcnd: signal received, draining coordinator")
	dctx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	if err := csrv.Drain(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("%w: %v", runstate.ErrInterrupted, err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("%w: shutdown: %v", runstate.ErrInterrupted, err)
	}
	fmt.Fprintln(out, "bcnd: coordinator drained cleanly")
	return nil
}

// runHACoordinator serves one replica of a highly-available
// coordinator group: lease-based leader election against the worker
// fleet's witnesses, live journal replication to the peer replicas,
// and leadership reporting on /statusz (DESIGN.md §5i).
func runHACoordinator(ctx context.Context, opt coordOptions, workers []string, out io.Writer) error {
	peers, err := parseURLList("-peers", opt.peers)
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peers lists no replica URLs")
	}
	if opt.self == "" {
		return fmt.Errorf("coordinator HA needs -self, this replica's advertised base URL")
	}
	self, err := parseURLList("-self", opt.self)
	if err != nil || len(self) != 1 {
		return fmt.Errorf("-self %q: want exactly one http(s) base URL", opt.self)
	}
	if opt.journalDir == "" {
		return fmt.Errorf("coordinator HA needs -journal: the replicated journal is what a successor resumes from")
	}
	if err := runstate.EnsureWritableDir(opt.journalDir); err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	journal, err := runstate.OpenJournal(filepath.Join(opt.journalDir, runstate.JournalFileName))
	if err != nil {
		return err
	}
	defer journal.Close()
	if d := journal.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "bcnd: journal replay dropped %d corrupt records\n", d)
	}
	fmt.Fprintf(out, "bcnd: replica journal %s replayed %d records\n", journal.Path(), journal.Len())

	node, err := cluster.NewHANode(cluster.HAConfig{
		Self:      self[0],
		Peers:     peers,
		Workers:   workers,
		LeaseTTL:  opt.leaseTTL,
		Journal:   journal,
		MaxSweeps: opt.maxSweeps,
		Log:       os.Stderr,
		Coordinator: cluster.Config{
			ShardSize:         opt.shardSize,
			LeaseTimeout:      opt.leaseTimeout,
			HeartbeatInterval: opt.hbInterval,
			AuditFraction:     opt.auditFraction,
			MapPath:           filepath.Join(opt.journalDir, "map.csv"),
			Log:               os.Stderr,
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bcnd: HA replica %s on %s (%d peers, %d workers, lease %s)\n",
		self[0], ln.Addr(), len(peers), len(workers), opt.leaseTTL)
	if startedHook != nil {
		startedHook(ln.Addr().String())
	}
	hs := newHTTPServer(node.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("bcnd: serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "bcnd: signal received, stopping replica")
	// Stop leading first — a peer takes over within one lease TTL — then
	// close the listener. No drain: the group, not this process, owns
	// sweep completion.
	node.Close()
	dctx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("%w: shutdown: %v", runstate.ErrInterrupted, err)
	}
	fmt.Fprintln(out, "bcnd: replica stopped")
	return nil
}

// clientQoS is the QoS identity a client-mode submission carries:
// tenant key, scheduling class, and end-to-end deadline budget.
type clientQoS struct {
	tenant   string
	class    string
	deadline time.Duration
}

// clientPost submits the spec in file (or stdin for "-") and prints the
// raw artifact bytes to stdout; status metadata goes to stderr so the
// output stays byte-comparable between runs. A shed (429) or draining
// (503) response is retried up to retries extra times through a jittered
// RetryPacer, honoring the server's Retry-After feedback — the polite
// client behavior the serving layer's explicit-feedback design asks
// for. The deadline is fixed at the first attempt: each retry stamps
// the budget that remains, not a fresh one, so retries cannot extend
// what the caller granted. Other non-2xx responses become exit 1 with
// the server's error body.
func clientPost(ctx context.Context, base, file string, retries int, q clientQoS, out io.Writer) error {
	var body []byte
	var err error
	if file == "-" {
		body, err = io.ReadAll(os.Stdin)
	} else {
		body, err = os.ReadFile(file)
	}
	if err != nil {
		return err
	}
	var deadlineAt time.Time
	if q.deadline > 0 {
		deadlineAt = time.Now().Add(q.deadline)
	}
	pacer := cluster.NewRetryPacer(200*time.Millisecond, 15*time.Second, 0)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if q.tenant != "" {
			req.Header.Set(qos.TenantHeader, q.tenant)
		}
		if q.class != "" {
			req.Header.Set(qos.ClassHeader, q.class)
		}
		if !deadlineAt.IsZero() {
			rem := time.Until(deadlineAt)
			if rem <= 0 {
				return fmt.Errorf("deadline budget spent before attempt %d", attempt+1)
			}
			req.Header.Set(qos.DeadlineHeader, qos.FormatDeadline(rem))
		}
		status, retryAfter, err := clientDo(req, out)
		if err == nil || status == 0 {
			return err // success, or a transport error retries won't help
		}
		// Only shed (429) and draining (503) are worth retrying here: a
		// 504 means the deadline budget is already doomed, and anything
		// else is a real answer.
		if attempt >= retries || (status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable) {
			return err
		}
		// The pacer jitters the server's hint up to +25% so a herd of shed
		// clients does not re-collide on the same instant — the retry
		// analogue of damping the gains.
		wait := pacer.Next(retryAfter)
		fmt.Fprintf(os.Stderr, "bcnd: shed with %d; retry %d/%d in %s\n", status, attempt+1, retries, wait.Round(time.Millisecond))
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return fmt.Errorf("%w: request cancelled", runstate.ErrInterrupted)
		}
	}
}

// clientGet fetches a completed artifact by key.
func clientGet(ctx context.Context, base, key string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+key, nil)
	if err != nil {
		return err
	}
	_, _, err = clientDo(req, out)
	return err
}

// clientDo performs one request. status is 0 for transport errors;
// retryAfter is the server's Retry-After hint, when present.
func clientDo(req *http.Request, out io.Writer) (status int, retryAfter time.Duration, err error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return 0, 0, fmt.Errorf("%w: request cancelled", runstate.ErrInterrupted)
		}
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, err
	}
	fmt.Fprintf(os.Stderr, "bcnd: status=%d cache=%s key=%s retry-after=%s\n",
		resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Job-Key"), resp.Header.Get("Retry-After"))
	retryAfter = qos.RetryAfter(resp.Header)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, retryAfter, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	_, err = out.Write(raw)
	return resp.StatusCode, retryAfter, err
}
