package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

func signedResult(n int) ShardResult {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{CSV: strings.Repeat("x", i+1), Violations: uint64(i)}
	}
	res := ShardResult{Index: 7, Rows: rows}
	SignShardResult(&res)
	return res
}

func TestSignAndVerifyShardResult(t *testing.T) {
	res := signedResult(4)
	if len(res.RowSums) != 4 || len(res.Digest) != 64 {
		t.Fatalf("signed result: %d sums, digest %q", len(res.RowSums), res.Digest)
	}
	if err := VerifyShardResult(res); err != nil {
		t.Fatalf("freshly signed result rejected: %v", err)
	}
	// Signing is deterministic: same rows, same signature.
	res2 := signedResult(4)
	if res2.Digest != res.Digest {
		t.Error("signing the same rows twice produced different digests")
	}
	// An empty shard still signs and verifies (zero rows is a valid
	// result shape at the digest layer; the wire layer rejects it).
	empty := ShardResult{Index: 1}
	SignShardResult(&empty)
	if err := VerifyShardResult(empty); err != nil {
		t.Errorf("empty signed result rejected: %v", err)
	}
}

func TestVerifyShardResultRejectsTampering(t *testing.T) {
	cases := map[string]func(*ShardResult){
		"unsigned":        func(r *ShardResult) { r.RowSums, r.Digest = nil, "" },
		"missing digest":  func(r *ShardResult) { r.Digest = "" },
		"wrong digest":    func(r *ShardResult) { r.Digest = strings.Repeat("0", 64) },
		"row flipped":     func(r *ShardResult) { r.Rows[2].CSV = "tampered" },
		"row dropped":     func(r *ShardResult) { r.Rows = r.Rows[:3] },
		"sum truncated":   func(r *ShardResult) { r.RowSums = r.RowSums[:3] },
		"sum swapped":     func(r *ShardResult) { r.RowSums[0], r.RowSums[1] = r.RowSums[1], r.RowSums[0] },
		"index reindexed": func(r *ShardResult) { r.Index = 8 },
		"violations":      func(r *ShardResult) { r.Rows[0].Violations++ },
	}
	for name, tamper := range cases {
		res := signedResult(4)
		tamper(&res)
		err := VerifyShardResult(res)
		if err == nil {
			t.Errorf("%s: tampered result verified", name)
			continue
		}
		if !errors.Is(err, ErrDigest) {
			t.Errorf("%s: error %v does not wrap ErrDigest", name, err)
		}
	}
}

// hashChain is the shard digest's reference definition: the hex SHA-256
// of every part prefixed by its length as a big-endian uint64, hashed
// part by part.
func hashChain(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestShardDigestIsLengthPrefixed(t *testing.T) {
	// The chain must distinguish where one part ends and the next begins;
	// plain concatenation would collapse these two.
	if ShardDigest(1, []string{"ab", "c"}) == ShardDigest(1, []string{"a", "bc"}) {
		t.Error("digest collides across part boundaries")
	}
	if ShardDigest(1, []string{"ab"}) == ShardDigest(2, []string{"ab"}) {
		t.Error("digest ignores the shard index")
	}
	// Small and large shards (the latter past the digest's stack buffer)
	// hash exactly as the reference chain does.
	for _, n := range []int{0, 1, 32, 33, MaxShardPoints} {
		sums := signedResult(n).RowSums
		for _, index := range []int{0, 7, -3, math.MaxInt} {
			want := hashChain(append([]string{"shard:" + strconv.Itoa(index)}, sums...)...)
			if got := ShardDigest(index, sums); got != want {
				t.Errorf("ShardDigest(%d, %d sums) = %s, reference chain %s", index, n, got, want)
			}
		}
	}
}

func TestRowsEqualAndDiffRows(t *testing.T) {
	a := []Row{{CSV: "a"}, {CSV: "b", Violations: 1}}
	b := []Row{{CSV: "a"}, {CSV: "b", Violations: 1}}
	if !rowsEqual(a, b) {
		t.Error("identical rows reported unequal")
	}
	b[1].Violations = 2
	if rowsEqual(a, b) {
		t.Error("diverging rows reported equal")
	}
	if got := diffRows(a, b); got != 1 {
		t.Errorf("diffRows = %d, want 1", got)
	}
	if got := diffRows(a, a[:1]); got != 2 {
		t.Errorf("diffRows with length mismatch = %d, want 2 (every row of the longer slice)", got)
	}
	if rowsEqual(a, a[:1]) {
		t.Error("length mismatch reported equal")
	}
}

// FuzzVerifyShardResult throws arbitrary bytes at the verification path
// (never panics, never accepts an unsigned result) and checks the
// sign-then-verify roundtrip on whatever decodes.
func FuzzVerifyShardResult(f *testing.F) {
	good, _ := json.Marshal(signedResult(3))
	f.Add(good)
	f.Add([]byte(`{"index":1,"rows":[{"csv":"a"}]}`))
	f.Add([]byte(`{"index":1,"rows":[],"digest":"00"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var res ShardResult
		if err := json.Unmarshal(data, &res); err != nil {
			return
		}
		if err := VerifyShardResult(res); err == nil {
			// Whatever verified must re-verify after a roundtrip through
			// signing — i.e. it carried the canonical signature already.
			resigned := res
			resigned.RowSums, resigned.Digest = nil, ""
			SignShardResult(&resigned)
			if resigned.Digest != res.Digest {
				t.Fatalf("verified digest %q is not the canonical signature %q", res.Digest, resigned.Digest)
			}
		}
		// Signing any decoded rows must always produce a verifiable result.
		SignShardResult(&res)
		if err := VerifyShardResult(res); err != nil {
			t.Fatalf("freshly signed result rejected: %v", err)
		}
	})
}
