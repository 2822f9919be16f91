//go:build unix

package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bcnphase/internal/cluster"
	"bcnphase/internal/serve"
)

// BenchmarkClusterSweep is the cluster rung of the ladder: one whole
// coordinator sweep, dispatched over loopback HTTP to real serve
// workers and merged into a serve.MemCache store, for every shard size,
// worker count and audit fraction. Each sweep gets a fresh store, so
// every point is dispatched and solved; none is replayed. Workers,
// coordinator and store share this process, so process CPU time
// divided by the grid's points is the whole cluster's CPU per point,
// solve and every per-dispatch layer above it (HTTP round trip, shard
// codec, signature, audit, merge) included. It reports:
//
//   - cluster.cpu_ns_per_point: process CPU per grid point, which sets
//     DefaultShardSize (see DESIGN.md §5f, "Shard size");
//   - cluster.ns_per_point: wall time per grid point;
//   - cluster.dispatches_per_sweep: shard posts per sweep, audit
//     re-executions included;
//   - ns/op: wall time per sweep.
//
// The grids are bcnsweep's default axes at 16 steps and at
// MaxClusterSteps, the largest grid a coordinator accepts; shard sizes
// run up to MaxShardPoints, the largest a worker accepts, so the large
// shard asymptote is on the rung. A one-worker fleet has no second
// worker to audit on, so its audit rows skip every audit and match its
// audit=0 rows.
//
// Process CPU comes from getrusage, hence the unix build constraint.
func BenchmarkClusterSweep(b *testing.B) {
	urls := make([]string, 3)
	for i := range urls {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	for _, steps := range []int{16, cluster.MaxClusterSteps} {
		grid := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 12.8, GdLo: 1.0 / 1024, GdHi: 0.5, Steps: steps}
		points := grid.Points()
		rows := make([]cluster.Row, len(points))
		if err := grid.EvalBatch(context.Background(), points, rows, cluster.EvalMetrics{}); err != nil {
			b.Fatal(err)
		}
		want := cluster.RenderCSV(rows)
		for _, workers := range []int{1, 3} {
			for _, audit := range []float64{0, 0.25} {
				for _, size := range []int{32, 64, 128, 256, cluster.MaxShardPoints} {
					if size > len(points) {
						continue // the same one-shard plan as the grid's size
					}
					name := fmt.Sprintf("steps=%d/workers=%d/audit=%g/shard=%d", steps, workers, audit, size)
					b.Run(name, func(b *testing.B) {
						benchClusterSweep(b, grid, want, urls[:workers], size, audit)
					})
				}
			}
		}
	}
}

func benchClusterSweep(b *testing.B, grid cluster.GainGrid, want []byte, urls []string, size int, audit float64) {
	tr := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	b.Cleanup(tr.base.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	points := grid.Steps * grid.Steps
	var cpu time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cluster.New(cluster.Config{
			Workers: urls, ShardSize: size, AuditFraction: audit,
			Journal: serve.NewMemCache(), Client: client,
			HeartbeatInterval: -1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		began := processCPU(b)
		out, err := c.Run(context.Background(), grid)
		cpu += processCPU(b) - began
		b.StopTimer()
		c.Close()
		if err != nil {
			b.Fatal(err)
		}
		if out.Fresh != points || !bytes.Equal(out.CSV, want) {
			b.Fatalf("sweep merged %d fresh points into a map that differs from the local one", out.Fresh)
		}
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(cpu.Nanoseconds())/(n*float64(points)), "cluster.cpu_ns_per_point")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(points)), "cluster.ns_per_point")
	b.ReportMetric(float64(tr.n.Load())/n, "cluster.dispatches_per_sweep")
}

// countingTransport counts the requests a coordinator sends; with
// heartbeats off, every one is a shard dispatch.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

// processCPU returns the user plus system CPU time this process has
// used so far, across all its threads.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
