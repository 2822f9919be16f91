package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"bcnphase/internal/cluster"
	"bcnphase/internal/runstate"
)

func newBenchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func marshalSpecB(b *testing.B, sp Spec) []byte {
	b.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

func postBytes(b *testing.B, base string, body []byte) int {
	b.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// BenchmarkSubmitCacheHit measures the full HTTP round trip for a job
// answered from the artifact store — the steady-state cost of a
// deduplicated resubmission.
func BenchmarkSubmitCacheHit(b *testing.B) {
	_, ts := newBenchServer(b, Config{Workers: 2})
	body := marshalSpecB(b, solveSpec())
	if code := postBytes(b, ts.URL, body); code != http.StatusOK {
		b.Fatalf("warm-up submit: status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := postBytes(b, ts.URL, body); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkSubmitSolveJob measures a fresh solve job per iteration; the
// spec varies so the dedup cache never answers.
func BenchmarkSubmitSolveJob(b *testing.B) {
	_, ts := newBenchServer(b, Config{Workers: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := solveSpec()
		sp.Solve.Params.Gi = 0.1 + float64(i)*1e-6
		if code := postBytes(b, ts.URL, marshalSpecB(b, sp)); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// benchShard is a 32-point shard of the 16×16 paper grid: one default
// cluster shard, as the coordinator dispatches it.
func benchShard(index int) *cluster.ShardSpec {
	g := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16}
	return &cluster.ShardSpec{Grid: g, Index: index, Points: g.Points()[96:128]}
}

// BenchmarkSubmitShardJob is the serve.shard_handler rung of the
// ladder: one 32-point shard job over loopback, as the coordinator
// posts it (cluster.EncodeShardJob), through decode, key, admission,
// evaluation, signing and the artifact encode. fresh varies the shard
// index, which is part of the dedup key; repeat resubmits one job,
// which evaluates again because a worker stores no shard artifact;
// journal is fresh on a server whose artifact store is an on-disk
// runstate.Journal, as bcnd -journal runs, so a per-shard record and
// its fsync would show here.
func BenchmarkSubmitShardJob(b *testing.B) {
	for _, tc := range []struct {
		name           string
		fresh, journal bool
	}{{"fresh", true, false}, {"repeat", false, false}, {"journal", true, true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{Workers: 2}
			if tc.journal {
				j, err := runstate.OpenJournal(filepath.Join(b.TempDir(), runstate.JournalFileName))
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { j.Close() })
				cfg.Cache = j
			}
			_, ts := newBenchServer(b, cfg)
			body, err := cluster.EncodeShardJob(benchShard(0), 2700)
			if err != nil {
				b.Fatal(err)
			}
			if code := postBytes(b, ts.URL, body); code != http.StatusOK {
				b.Fatalf("warm-up submit: status %d", code)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.fresh {
					b.StopTimer()
					if body, err = cluster.EncodeShardJob(benchShard(i+1), 2700); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if code := postBytes(b, ts.URL, body); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "serve.shard_handler_us")
		})
	}
}

// BenchmarkDecodeSpecKey is the serve.decode_key rung: DecodeSpec plus
// Spec.Key per body, the work perfbench's serve.decode_key_us probe
// times. solve alternates default and record-policy solve jobs, as the
// serve-jobs workload submits them; shard is the 32-point shard job a
// coordinator posts.
func BenchmarkDecodeSpecKey(b *testing.B) {
	record := solveSpec()
	record.Invariants = "record"
	shard, err := cluster.EncodeShardJob(benchShard(3), 2700)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		bodies [][]byte
	}{
		{"solve", [][]byte{marshalSpecB(b, solveSpec()), marshalSpecB(b, record)}},
		{"shard", [][]byte{shard}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp, err := DecodeSpec(bytes.NewReader(tc.bodies[i%len(tc.bodies)]), DefaultMaxBodyBytes)
				if err != nil {
					b.Fatal(err)
				}
				if benchKey, err = sp.Key(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "serve.decode_key_us")
		})
	}
}

var benchKey string

// BenchmarkStatusSnapshot measures the /statusz aggregation, which
// reads every counter from the telemetry registry.
func BenchmarkStatusSnapshot(b *testing.B) {
	s, ts := newBenchServer(b, Config{Workers: 1})
	if code := postBytes(b, ts.URL, marshalSpecB(b, solveSpec())); code != http.StatusOK {
		b.Fatalf("warm-up submit: status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.StatusSnapshot()
		if st.Accepted != 1 {
			b.Fatalf("accepted = %d", st.Accepted)
		}
	}
}
