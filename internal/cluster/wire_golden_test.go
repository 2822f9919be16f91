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
// on a fixed 16×16 grid, once on the analytic engine and once under
// the record policy (the classic path, whose rows carry Violations and
// FirstPred). A real coordinator merges shards from a worker that
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
			fingerprint: "53390e09bfcebf8bbfe3a3e67d7bef8a8791808a02ea71d4c2b0facdf016eb40",
			keys:        "e18bdd3fb003c1012498db480219b9e4eedad43dcee377b551d381ea033a0436",
			signatures:  "33d44e54df5ddf1770337b69d47b670644ad45a67156775e1bf3e36b90c4d693",
			journal:     "da3956d95423ab8abcc8cfda2110984002c6da00f1d5628975de5a2c9c08bad9",
			mapCSV:      "c8e150179dcfbb2d860fd9181dbaf8ea1385bee69d88c6f5060c041cfc5a3ac6",
		}},
		// 60 of these rows carry nonzero Violations and a FirstPred.
		{"record", wireGolden{
			fingerprint: "8be17e3a2783cf2a06f2fbcc93078e7d81665cabe3a221a3a758fe97fb80763d",
			keys:        "e25970dfb1d30ce4d4c5b62b03cd24695a064541344817936df2fc2d6dca75b3",
			signatures:  "ba6303711e19e6ab9c3a46b4b43eef8c61cd0293361d8dd119db27546b46e865",
			journal:     "9e4ddf19a0f712b2d63c7f59773364546d1ffd57516717803f52c2a750a45cfc",
			mapCSV:      "9e98824b3830168b38bb8920973f57a0c9691b44829f8cee8449770fa347d0e5",
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
