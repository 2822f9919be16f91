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
		{"solve", solveSpec(), "d56f209792b37445401b887657f51dcd406786840c61a89b11a57826d827889a"},
		{"solve-record", recordSolve, "152e8354bac4f0fbfc2b9c443760f7b28652fa79b881f10388763d56f9351c78"},
		{"sweep", sweepSpec(), "d3ed36e02296e5eaeef39bca479bb6ef7c97f0386a1987fef502e5d175bd4a63"},
		{"netsim-faults", faulted, "3e7b5ac8dbfae4d6db4d7c914f23f8462c615e796d4cd3648372ba4651119366"},
		{"shard", shard, "acc33ddb841f37f374e2ac34463d986b1f6955668b957555bbcae28064b198fa"},
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
		{"solve", solveSpec(), "c1a51a6d442c82c316b39579cf3e6973f3b34024ba74ab9c5d3ca7dcfdcd644c"},
		{"solve-record", recordSolve, "4c515d34704b947d8fe68fb3db55c38500854d316187b22a16a739f44b49e39e"},
		{"shard", shard, "fcb52834acdf7f1a3e8d8174ab89bd5308e321846f6c4b16baadb84f228e6159"},
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
