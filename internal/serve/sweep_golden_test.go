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
		{"", "0fbce7316d11130c94f9f428bfe4755d8a5d4f8f1376caee5283bec959b6f7e9"},
		{"record", "da90489720bcdbecc3437c460aad832c1d7fd8e1af380dbf543fffe312b50c82"},
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
