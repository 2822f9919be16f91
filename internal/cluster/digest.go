package cluster

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"bcnphase/internal/canonjson"
)

// ErrDigest wraps every shard-result integrity failure: absent or
// mismatched row checksums, or a shard digest that does not cover the
// rows it arrived with. The coordinator treats it as transient (the same
// worker can answer correctly on a retry after in-flight corruption),
// unlike ErrWire, which is a terminal verdict about the message shape.
var ErrDigest = errors.New("cluster: shard result failed integrity check")

// RowSum is the per-row content checksum: the hex SHA-256 of the row's
// JSON encoding (what runstate.HashJSON of the row has always been),
// computed by the worker that evaluated it. The coordinator recomputes
// it on receipt, so a row corrupted in flight (truncated or bit-flipped
// anywhere between evaluation and merge) is caught before it can reach
// the journal.
func RowSum(r Row) string {
	var buf [256]byte
	return canonjson.Hash(appendRowJSON(buf[:0], &r))
}

// ShardDigest chains a shard's index and its per-row checksums into the
// shard-level digest: the hex SHA-256 of the length-prefixed parts
// "shard:<index>", rowSums[0], rowSums[1], ….
func ShardDigest(index int, rowSums []string) string {
	return canonjson.HexSum(shardDigestSum(index, rowSums))
}

// SignShardResult fills res.RowSums and res.Digest from its rows. The
// worker signs every shard result it evaluates; anything that rewrites
// rows afterwards must re-sign or fail verification at the coordinator.
func SignShardResult(res *ShardResult) {
	res.RowSums = make([]string, len(res.Rows))
	for i, r := range res.Rows {
		res.RowSums[i] = RowSum(r)
	}
	res.Digest = ShardDigest(res.Index, res.RowSums)
}

// VerifyShardResult checks a shard result's integrity envelope: a digest
// present, one checksum per row, every row matching its checksum and the
// digest matching the chained checksums. Every failure wraps ErrDigest.
// It never panics on arbitrary input (fuzzed in fuzz_test.go). Note what
// this does and does not prove: it catches transport corruption, but a
// worker that lies about its rows signs the lie consistently — only
// re-execution on an independent worker (the audit path) catches that.
func VerifyShardResult(res ShardResult) error {
	return verifyShard(&res)
}

// verifyShard is VerifyShardResult that keeps the bytes it hashed: on
// success res.records[i] is Rows[i]'s JSON, a capped window of one
// buffer, which the coordinator's merge journals as the row's record.
func verifyShard(res *ShardResult) error {
	if res.Digest == "" {
		return fmt.Errorf("%w: shard %d carries no digest", ErrDigest, res.Index)
	}
	if len(res.RowSums) != len(res.Rows) {
		return fmt.Errorf("%w: shard %d has %d row checksums for %d rows", ErrDigest, res.Index, len(res.RowSums), len(res.Rows))
	}
	n := 0
	for i := range res.Rows {
		n += rowJSONLen(&res.Rows[i])
	}
	buf := make([]byte, 0, n)
	records := make([][]byte, len(res.Rows))
	for i := range res.Rows {
		at := len(buf)
		buf = appendRowJSON(buf, &res.Rows[i])
		records[i] = buf[at:len(buf):len(buf)]
		if !hexEqual(sha256.Sum256(records[i]), res.RowSums[i]) {
			return fmt.Errorf("%w: shard %d row %d does not match its checksum", ErrDigest, res.Index, i)
		}
	}
	if !hexEqual(shardDigestSum(res.Index, res.RowSums), res.Digest) {
		return fmt.Errorf("%w: shard %d digest does not cover its row checksums", ErrDigest, res.Index)
	}
	res.records = records
	return nil
}

// rowsEqual reports whether two row slices are bit-exact: same length,
// every field identical. The audit comparison is exactly this — "close"
// is not a concept the merged map has.
func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffRows counts positions where two equal-length row slices disagree
// (length mismatch counts every row of the longer slice).
func diffRows(a, b []Row) int {
	if len(a) != len(b) {
		if len(a) > len(b) {
			return len(a)
		}
		return len(b)
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
