package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// wireGolden is one pinned cluster sweep: the grid fingerprint and
// SHA-256 digests of every point key, every shard's signature, every
// journal record the coordinator wrote and the merged map.
type wireGolden struct {
	fingerprint string
	keys        string
	signatures  string
	journal     string
	mapCSV      string
}

// TestShardWireGolden pins the cluster's per-row wire and journal bytes
// on a fixed 16×16 grid, once unchecked and once under the record
// policy (whose rows carry Violations and FirstPred). A real coordinator merges shards from a worker that
// evaluates and signs them, so the journal digest covers exactly what
// merge records. Any change to how rows, point keys, row checksums or
// shard digests are encoded shows up here first. Digests are recorded
// on linux/amd64; other architectures may round the solve differently.
func TestShardWireGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		invariants string
		want       wireGolden
	}{
		{"", wireGolden{
			fingerprint: "3f9b847a78af0feec83f6bb899337a5ec5e41cb67e3f0a76d8ea448dc5483cd8",
			keys:        "1a02b663e4a51bc6ed906cbf3f415411dd693f9794ff6df6050bf1655f8542c2",
			signatures:  "2e96d08b215eff4a371712dc2bc00326b9a79242a7585f354cc8ccb95628fb34",
			journal:     "31047df8dc1b645fb85b4afb8aa9d1a81be34825cc58bde1642faea59cb3092a",
			mapCSV:      "fffd2506dd1aef15cfd1002523668ba45834cc2e9914fbdee89eb8b0e586098a",
		}},
		// 60 of these rows carry nonzero Violations (one rate-bounds knot
		// each) and a FirstPred.
		{"record", wireGolden{
			fingerprint: "afe11f8f4ca042bb0a4048ff95a8ecc41661c84a3308e555e559e7c228be7284",
			keys:        "f581113424927ff7f80d2a08497d3175711b28e85ad2e427dc2e54d1a887fb52",
			signatures:  "b7f4971cb25cb03bbf0d977fb5cd5625fbbdd2d0f54b3dc6c53b33e71eb7cc00",
			journal:     "aefa8873eeecebf23422ba6ccc4863e115088833675877d76b83e987f77c8002",
			mapCSV:      "09fd8b0d667e7a36e4c34333a02da82ec1e5ba0c20e89adc4687699ece0b4221",
		}},
	} {
		t.Run("invariants="+tc.invariants, func(t *testing.T) {
			grid := GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16, Invariants: tc.invariants}
			if got := runWireGolden(t, grid); got != tc.want {
				t.Errorf("shard wire digests changed:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func runWireGolden(t *testing.T, grid GainGrid) wireGolden {
	const shardSize = 32
	fp, _, shards, err := PlanShards(grid, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	var keys []byte
	for _, sh := range shards {
		for _, k := range sh.Keys {
			keys = append(append(keys, k...), '\n')
		}
	}

	// The worker evaluates and signs each shard for real; every
	// signature it sends is kept for the digest.
	var (
		mu   sync.Mutex
		sigs = map[int]ShardResult{}
	)
	w := newFakeWorker(t, func(w http.ResponseWriter, _ *http.Request, sh *ShardSpec) bool {
		res := ShardResult{Index: sh.Index, Rows: make([]Row, len(sh.Points))}
		if err := sh.Grid.EvalBatch(context.Background(), sh.Points, res.Rows, EvalMetrics{}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return true
		}
		SignShardResult(&res)
		mu.Lock()
		sigs[res.Index] = res
		mu.Unlock()
		raw, _ := json.Marshal(struct {
			Key        string       `json:"key"`
			Kind       string       `json:"kind"`
			Invariants string       `json:"invariants"`
			Shard      *ShardResult `json:"shard"`
		}{"k", "shard", sh.Grid.Invariants, &res})
		_, _ = w.Write(raw)
		return true
	})
	j := newMemJournal()
	c, err := New(Config{Workers: []string{w.URL()}, ShardSize: shardSize, Journal: j, HeartbeatInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fresh != len(keys)/65 {
		t.Fatalf("sweep evaluated %d fresh points, want every one of %d", out.Fresh, len(keys)/65)
	}

	var signatures []byte
	mu.Lock()
	defer mu.Unlock()
	for _, sh := range shards {
		res, ok := sigs[sh.Index]
		if !ok {
			t.Fatalf("shard %d was never signed", sh.Index)
		}
		signatures = strconv.AppendInt(signatures, int64(sh.Index), 10)
		for _, s := range res.RowSums {
			signatures = append(append(signatures, ' '), s...)
		}
		signatures = append(append(append(signatures, ' '), res.Digest...), '\n')
	}

	var journal []byte
	jkeys := j.Keys()
	sort.Strings(jkeys)
	for _, k := range jkeys {
		v, _ := j.Lookup(k)
		journal = append(append(append(append(journal, k...), '='), v...), '\n')
	}
	return wireGolden{
		fingerprint: fp,
		keys:        sha256Hex(keys),
		signatures:  sha256Hex(signatures),
		journal:     sha256Hex(journal),
		mapCSV:      sha256Hex(out.CSV),
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
