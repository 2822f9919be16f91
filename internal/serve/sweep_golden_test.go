package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"runtime"
	"testing"
)

// TestSweepArtifactGolden pins the bytes of served sweep artifacts on a
// 16×16 grid spanning all outcome classes, on the default engine and
// under the record policy. A resubmitted sweep is answered from the
// journal byte for byte, so any change to the served layout or its rows
// shows up here first. Digests are recorded on linux/amd64.
func TestSweepArtifactGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range []struct{ invariants, want string }{
		{"", "777d505e43dfbb81cdda7cac60997bbac10e8168725075b3df4e80c211fdf848"},
		{"record", "e16e6d3e9733ea7e4dfb27145013f545d02a16191967740245dcd96572d5ea92"},
	} {
		t.Run("invariants="+tc.invariants, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			sp := Spec{Kind: KindSweep, Invariants: tc.invariants, Sweep: &SweepSpec{
				BOverQ0: 5, GiLo: 0.05, GiHi: 8, GdLo: 0.001, GdHi: 0.4, Steps: 16,
			}}
			resp := postSpec(t, ts.URL, marshalSpec(t, sp))
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sweep artifact digest %s, want %s", got, tc.want)
			}
		})
	}
}
