package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"runtime"
	"testing"

	"bcnphase/internal/cluster"
	"bcnphase/internal/faults"
)

// goldenShard is a four-point shard of the 16×16 paper grid under the
// record policy; two of its rows carry a violation.
func goldenShard() *cluster.ShardSpec {
	g := cluster.GainGrid{BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16, Invariants: "record"}
	return &cluster.ShardSpec{Grid: g, Index: 11, Points: g.Points()[176:180]}
}

// TestSpecKeyGolden pins the dedup key of one spec of each kind — the
// identity every journal entry is stored under — and the bytes of a
// served solve artifact, a served shard artifact and the shard job the
// coordinator posts. Any change to how a spec, an artifact or a shard
// job is encoded shows up here first. Digests are recorded on
// linux/amd64.
func TestSpecKeyGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	recordSolve := solveSpec()
	recordSolve.Invariants = "record"
	recordSolve.Solve.Start = &[2]float64{-1.25e6, -1.5e10}
	recordSolve.Solve.MaxArcs = 40
	faulted := netsimSpec()
	faulted.Netsim.Faults = &faults.Config{Seed: 7, FeedbackLoss: 0.2}
	shard := Spec{Kind: KindShard, Shard: goldenShard()}
	for _, tc := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"solve", solveSpec(), "0bcdb2daa03d55ba0957fc51123e26cffa540a26465c5710261091be8bc5ef02"},
		{"solve-record", recordSolve, "f6ab934dd0a10e3039a1489a248973e262a6ea10f5cacddc02c8abba699ccf07"},
		{"sweep", sweepSpec(), "4f06cf7bbe9b999d1e0960aa8456bebc75ef5fe1353f016a12b2e16e7d3ce97e"},
		{"netsim-faults", faulted, "9b39b19d9f2f562f7644f4118bb3140e4e5b53962098b7437045182e3a4e2393"},
		{"shard", shard, "1d3140d726dd2627790c9a2ca92a1d8ccfbe8504c33eb170889c2350a8b58f64"},
	} {
		key, err := tc.sp.Key()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if key != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, key, tc.want)
		}
	}

	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"solve", solveSpec(), "cc725b9728d64aa90a36092c3f3c9b5e3001ecd392bc29b061689b935aea7ee5"},
		{"solve-record", recordSolve, "d5d1b2622758d4bdb64891324bb9a2178b922dcf0d2a91778768fbfa2be8f934"},
		{"shard", shard, "768b308da3239c67c5d995088e1c73fcf34c88c1a484c1d58c23d0b976af8abc"},
	} {
		resp := postSpec(t, ts.URL, marshalSpec(t, tc.sp))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		if got := sha256Hex(body); got != tc.want {
			t.Errorf("%s artifact digest %s, want %s", tc.name, got, tc.want)
		}
	}

	job, err := cluster.EncodeShardJob(goldenShard(), 2700)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha256Hex(job), "f6687d3d7052fa5c83ce74a3896e03a3b422e9df45bc342db58b287a8e9c1107"; got != want {
		t.Errorf("shard job digest %s, want %s", got, want)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
