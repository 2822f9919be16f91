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
		{"solve", solveSpec(), "d762e14fd45da73479cde4bdc5c1aa0553c91334178fa23dd0e2215923a89f95"},
		{"solve-record", recordSolve, "8049e92538870f4886c653c5e78d43418b1698fe8f43f48fcaed19806ccbc95a"},
		{"sweep", sweepSpec(), "ae8e08fa170b197602230a313e7759ab5eec02ba5bfc3c308123858c26b0ab4c"},
		{"netsim-faults", faulted, "db1744dc4218248a4e8cac2bb5574f10a7602209aa4c64063aa2aa183c415631"},
		{"shard", shard, "f9a45913c43b4a1cfa3b273ea30a77162847109dc0275f3da062d366017efc92"},
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
		{"solve", solveSpec(), "0099df146e72ab1213e17815a9c6f703ebeb27440c6c1803b8dd6ffcbfd55ee7"},
		{"solve-record", recordSolve, "1d65e7d1322a96ea9a7840d63f3cb1578b0d7ffc8ae074a172198a8c46ad4814"},
		{"shard", shard, "fd6951aabda0071b67a4927d0d6348a8c1cd311a4d63714d43061aae97a54ba7"},
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
