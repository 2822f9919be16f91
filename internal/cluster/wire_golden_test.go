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
			fingerprint: "2c2ff334e55d8e715c11bd9243fad57285ee83f566b979dcd8a9a7b33598aa5b",
			keys:        "00bad9498e6a91e46e7c56ba6e1b08104d5a957f7069ee9ce487889b7f393f07",
			signatures:  "33d44e54df5ddf1770337b69d47b670644ad45a67156775e1bf3e36b90c4d693",
			journal:     "af2bd5dc875c3e89fb5c4377b5dcc59cb9b0755b1de8e5d667e553d403bb3918",
			mapCSV:      "c8e150179dcfbb2d860fd9181dbaf8ea1385bee69d88c6f5060c041cfc5a3ac6",
		}},
		// 60 of these rows carry nonzero Violations (one rate-bounds knot
		// each) and a FirstPred.
		{"record", wireGolden{
			fingerprint: "dd37104565b089a1d211d37a8e78c6eed22618de6abfbf5c0974fa5dcaff2729",
			keys:        "bbe7098bcfcc7f6ecf6cdc3830a24470fcd20f423087e3238d070628d18267b1",
			signatures:  "df9fe5723d0893c26bb59d41e7c05d6147128e88a288b6fa66aecc274484b412",
			journal:     "bd2204e9a7d188f336d66f9de8fe501740dd76c720ac574d84b086add3fafbf4",
			mapCSV:      "a8b77bbf2f6a8ba6e44ad675ca619dd9307399035bb732c8f9f0cd402769564a",
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
