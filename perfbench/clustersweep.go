package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/core"
	"bcnphase/internal/serve"
	"bcnphase/internal/telemetry"
)

// clusterSteps is the cluster-sweep grid resolution (16×16 points).
const clusterSteps = 16

// clusterGrid is sweep i's grid and the sweep that first submitted it.
// Every fourth sweep resubmits a uniformly drawn earlier fresh grid,
// which the coordinator answers by journal replay alone.
func clusterGrid(seed int64, i int) (cluster.GainGrid, int) {
	if i%4 == 3 {
		r := newRand(seed, streamResubmit, uint64(i))
		j := r.IntN(i)
		for j%4 == 3 {
			j = r.IntN(i)
		}
		return genGrid(seed, j, clusterSteps), j
	}
	return genGrid(seed, i, clusterSteps), i
}

type worker struct {
	srv *serve.Server
	lb  *loopback
}

// clusterSweep is one closed-loop client submitting grids over POST
// /v1/sweeps to a coordinator that shards them across two serve.Server
// workers, as `bcnsweep -cluster` against `bcnd -coordinator`. Workers
// keep their in-memory caches and the coordinator records merged rows
// and shard markers in an in-memory store, so resubmitted grids replay
// from it. (On-disk journals put one fsync per merged row on the
// critical path, and fsync latency on a shared virtual disk swings too
// much from minute to minute for a steady figure; the traced run
// measures the journal on the same records instead.) The coordinator
// and its store live for the whole run.
type clusterSweep struct {
	seed    int64
	t       *tracer
	dir     string
	workers []worker
	store   *serve.MemCache
	coord   *cluster.Coordinator
	// dispatch is the coordinator's transport to the workers.
	dispatch *http.Transport
	front    *cluster.Server
	lb       *loopback
	client   *http.Client
	url      string

	mu sync.Mutex
	// sums keeps each merged map's digest, not the map, so the
	// benchmark's memory does not grow with the sweeps run.
	sums map[int][sha256.Size]byte

	m0 clusterCounts
	a0 analyticCounts // workers' analytic counters after warm-up
}

func (c *clusterSweep) workerRegistries() []*telemetry.Registry {
	var regs []*telemetry.Registry
	for _, w := range c.workers {
		regs = append(regs, w.srv.Registry())
	}
	return regs
}

// clusterCounts are the coordinator counters the per-layer metrics use.
type clusterCounts struct {
	shardsDone, audited, retries, reassigned, replayed, points float64
}

func (c *clusterSweep) counts() clusterCounts {
	m := c.coord.Metrics()
	return clusterCounts{
		shardsDone: float64(m.ShardsDone.Value()),
		audited:    float64(m.AuditSampled.Value()),
		retries:    float64(m.Retries.Value()),
		reassigned: float64(m.Reassigned.Value()),
		replayed:   float64(m.ReplayedPoints.Value()),
		points:     float64(m.Points.Value()),
	}
}

func setupClusterSweep(e env) (fixture, error) {
	c := &clusterSweep{seed: e.seed, t: e.t, dir: e.dir, sums: make(map[int][sha256.Size]byte)}
	fail := func(err error) (fixture, error) {
		c.close()
		return nil, err
	}
	var urls []string
	for w := 0; w < 2; w++ {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			return fail(err)
		}
		lb, err := startLoopback(tracedHandler{next: srv.Handler(), t: e.t, name: "serve.shard_handler", method: http.MethodPost, path: "/v1/jobs"})
		if err != nil {
			return fail(err)
		}
		c.workers = append(c.workers, worker{srv: srv, lb: lb})
		urls = append(urls, lb.url)
	}
	c.store = serve.NewMemCache()
	c.dispatch = http.DefaultTransport.(*http.Transport).Clone()
	var err error
	c.coord, err = cluster.New(cluster.Config{
		Workers:       urls,
		Journal:       tracedStore{s: c.store, t: e.t, prefix: "cluster.store"},
		Registry:      telemetry.NewRegistry(),
		Client:        &http.Client{Transport: tracedTransport{base: c.dispatch, t: e.t}},
		AuditFraction: 0.25,
		Seed:          e.seed | 1,
	})
	if err != nil {
		return fail(err)
	}
	c.front, err = cluster.NewServer(cluster.ServerConfig{Coordinator: c.coord})
	if err != nil {
		return fail(err)
	}
	c.lb, err = startLoopback(c.front.Handler())
	if err != nil {
		return fail(err)
	}
	c.client = newClient(1)
	c.url = c.lb.url + "/v1/sweeps"
	// Warm-up: one sweep of a grid outside the input list.
	body, err := json.Marshal(genGrid(e.seed^int64(streamWarmup), 0, clusterSteps))
	if err != nil {
		return fail(err)
	}
	if _, _, err := post(context.Background(), c.client, c.url, body, -1); err != nil {
		return fail(fmt.Errorf("warm-up sweep: %w", err))
	}
	c.m0 = c.counts()
	c.a0 = readAnalytic(c.workerRegistries()...)
	return c, nil
}

func (c *clusterSweep) input(i int) (any, error) {
	g, _ := clusterGrid(c.seed, i)
	return json.Marshal(g)
}

func (c *clusterSweep) op(ctx context.Context, i int, in any) (any, error) {
	sp := c.t.begin("client.sweep", int64(i), 0)
	raw, _, err := post(ctx, c.client, c.url, in.([]byte), i)
	sp.end()
	return raw, err
}

func (c *clusterSweep) keep(i int, _, out any) {
	sum := sha256.Sum256(out.([]byte))
	c.mu.Lock()
	c.sums[i] = sum
	c.mu.Unlock()
}

// check compares every merged map with the local map of the same grid,
// rendered point by point with GainGrid.Eval, and requires every
// resubmitted grid to have been answered by replay alone.
func (c *clusterSweep) check() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	refs := make(map[int][sha256.Size]byte) // fresh sweep → local map digest
	wrong := 0
	var first error
	resubmits := 0
	for i, got := range c.sums {
		g, origin := clusterGrid(c.seed, i)
		if origin != i {
			resubmits++
		}
		want, ok := refs[origin]
		if !ok {
			local, err := localMap(g)
			if err != nil {
				return wrong + 1, err
			}
			want = sha256.Sum256(local)
			refs[origin] = want
		}
		if got != want {
			wrong++
			if first == nil {
				first = fmt.Errorf("sweep %d: cluster map differs from the local map of its grid", i)
			}
		}
	}
	if got, want := c.counts().replayed-c.m0.replayed, float64(resubmits*clusterSteps*clusterSteps); got != want {
		wrong++
		if first == nil {
			first = fmt.Errorf("%v points replayed for %d resubmitted grids, want %v", got, resubmits, want)
		}
	}
	return wrong, first
}

func (c *clusterSweep) layers(l *layerSet, p *pass) error {
	c.t.adopt("client.sweep")
	sweeps := c.t.named("client.sweep")
	dispatches := c.t.named("cluster.dispatch")
	records := c.t.named("cluster.store_record")
	lookups := c.t.named("cluster.store_lookup")
	n := float64(len(sweeps))

	l.set("cluster.dispatch_us_p50", spanQuantile(dispatches, 0.5, time.Microsecond), len(dispatches))
	l.set("cluster.dispatch_us_p99", spanQuantile(dispatches, 0.99, time.Microsecond), len(dispatches))
	l.set("cluster.dispatches_per_sweep", ratio(float64(len(dispatches)), n), len(sweeps))
	var bytesRead int64
	for _, d := range dispatches {
		bytesRead += d.Bytes
	}
	l.set("cluster.shard_response_bytes", ratio(float64(bytesRead), float64(len(dispatches))), len(dispatches))
	shards := c.t.named("serve.shard_handler")
	l.set("serve.shard_handler_us_p50", spanQuantile(shards, 0.5, time.Microsecond), len(shards))
	l.set("runstate.coordinator_records_per_sweep", ratio(float64(len(records)), n), len(sweeps))
	rec, _, err := probeJournal(c.dir, recordKeys(records), c.store)
	if err != nil {
		return err
	}
	l.set("runstate.coordinator_record_us_p50", median(rec), len(rec))

	// Self time of a sweep: what is left after dispatches and the
	// coordinator's store calls.
	inner := append(append(append([]span(nil), dispatches...), records...), lookups...)
	sort.Slice(inner, func(a, b int) bool { return inner[a].Start < inner[b].Start })
	var self []float64
	for _, s := range sweeps {
		self = append(self, float64(selfTime(s, within(s, inner)))/1e6)
	}
	l.set("cluster.sweep_self_ms", median(self), len(self))

	now := c.counts()
	d := clusterCounts{
		shardsDone: now.shardsDone - c.m0.shardsDone,
		audited:    now.audited - c.m0.audited,
		retries:    now.retries - c.m0.retries,
		reassigned: now.reassigned - c.m0.reassigned,
		replayed:   now.replayed - c.m0.replayed,
		points:     now.points - c.m0.points,
	}
	l.set("cluster.audit_share", ratio(d.audited, d.shardsDone), int(d.shardsDone))
	l.set("cluster.wasted_dispatch_share", ratio(d.retries+d.reassigned, float64(len(dispatches))), len(dispatches))
	l.set("cluster.replayed_share", ratio(d.replayed, d.replayed+d.points), int(d.replayed+d.points))
	l.set("cluster.journal_keys_end", float64(c.store.Len()), 1)

	// Growth with history: the median sweep time of the last tenth of
	// sweeps over that of the first tenth.
	tenth := len(sweeps) / 10
	if tenth > 0 {
		var early, late []float64
		for k := 0; k < tenth; k++ {
			early = append(early, float64(sweeps[k].dur()))
			late = append(late, float64(sweeps[len(sweeps)-1-k].dur()))
		}
		l.set("cluster.late_over_early", ratio(median(late), median(early)), 2*tenth)
	}

	readAnalytic(c.workerRegistries()...).since(c.a0).report(l)

	var params []core.Params
	for i := 0; i < 32; i++ {
		g, _ := clusterGrid(c.seed, i)
		params = append(params, gridParams(g)...)
	}
	return probeBatch(l, params)
}

func (c *clusterSweep) close() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.lb != nil {
		c.lb.stop()
	}
	if c.front != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = c.front.Drain(ctx) // a sweep still running after 30 s is abandoned
		cancel()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	if c.dispatch != nil {
		c.dispatch.CloseIdleConnections()
	}
	for _, w := range c.workers {
		w.lb.stop()
		w.srv.Drain()
	}
}
