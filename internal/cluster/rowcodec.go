package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The cluster's per-row JSON — row checksums, point keys, journal
// records and the shard artifacts workers send back — goes through the
// one canonical codec in this file instead of reflective encoding/json.
// The encoder's output is byte-identical to json.Marshal of the same
// value (FuzzRowCodec holds the two together), so every checksum, key
// and journal record keeps the bytes it has always had. The decoder
// reads exactly that canonical form; the first byte it does not expect
// hands the whole input to json.Unmarshal, so the inputs accepted, the
// values decoded and the errors returned are encoding/json's.

// jsonEscape maps each ASCII byte to its escape in encoding/json's
// HTML-safe string encoding, or "" when the byte is written as is.
var jsonEscape = func() (t [utf8.RuneSelf]string) {
	const hexDigits = "0123456789abcdef"
	for b := 0; b < 0x20; b++ {
		t[b] = `\u00` + string(hexDigits[b>>4]) + string(hexDigits[b&0xF])
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	t['"'], t['\\'] = `\"`, `\\`
	t['<'], t['>'], t['&'] = `\u003c`, `\u003e`, `\u0026`
	return t
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it: the escapes of jsonEscape, invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if esc := jsonEscape[c]; esc != "" {
				b = append(append(b, s[start:i]...), esc...)
				start = i + 1
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		}
		if esc != "" {
			b = append(append(b, s[start:i]...), esc...)
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite float64 as encoding/json writes it:
// shortest 'f' form, or 'e' form for magnitudes below 1e-6 or from 1e21
// up, with a one-digit negative exponent unpadded (e-9, not e-09).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendRowJSON appends json.Marshal(r)'s bytes: the journal record of
// a row and the input of its checksum.
func appendRowJSON(b []byte, r *Row) []byte {
	b = append(b, `{"CSV":`...)
	b = appendJSONString(b, r.CSV)
	b = append(b, `,"Violations":`...)
	b = strconv.AppendUint(b, r.Violations, 10)
	b = append(b, `,"FirstPred":`...)
	b = appendJSONString(b, r.FirstPred)
	return append(b, '}')
}

// rowJSONLen is a capacity hint for one row's JSON: the field names and
// punctuation, a 20-digit count, and both strings unescaped.
func rowJSONLen(r *Row) int {
	return len(`{"CSV":"","Violations":,"FirstPred":""}`) + 20 + len(r.CSV) + len(r.FirstPred)
}

// rowSum is sha256 of the row's JSON, hashed from a stack buffer for
// every row short enough to fit one.
func rowSum(r *Row) [sha256.Size]byte {
	var buf [256]byte
	return sha256.Sum256(appendRowJSON(buf[:0], r))
}

// shardDigestSum hashes the parts "shard:<index>", rowSums[0], … with
// each part prefixed by its length as a big-endian uint64, so part
// boundaries cannot shift without changing the digest. The buffer stays
// on the stack for shards of up to 32 rows.
func shardDigestSum(index int, rowSums []string) [sha256.Size]byte {
	var stack [2560]byte
	b := strconv.AppendInt(append(stack[:8], "shard:"...), int64(index), 10)
	binary.BigEndian.PutUint64(b, uint64(len(b)-8))
	for _, s := range rowSums {
		b = binary.BigEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	return sha256.Sum256(b)
}

// hexString is the lowercase hex spelling of sum, built with the one
// allocation of the string itself.
func hexString(sum [sha256.Size]byte) string {
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// hexEqual reports whether s is the lowercase hex spelling of sum,
// without building that spelling as a string.
func hexEqual(sum [sha256.Size]byte, s string) bool {
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:]) == s
}

// wireReader walks the canonical encoding of a Row or a shard artifact.
// Any byte it does not expect clears ok; from then on every read is a
// no-op, and the caller decodes the whole input with encoding/json
// instead. Strings are read only when they are plain printable ASCII
// with no escapes, so each one is a substring of the input, byte for
// byte what json.Unmarshal would decode.
type wireReader struct {
	s  string
	i  int
	ok bool
}

// opt consumes l if the input continues with it.
func (r *wireReader) opt(l string) bool {
	if r.ok && strings.HasPrefix(r.s[r.i:], l) {
		r.i += len(l)
		return true
	}
	return false
}

// lit consumes the literal l, which must come next.
func (r *wireReader) lit(l string) {
	if !r.opt(l) {
		r.ok = false
	}
}

// str reads one string.
func (r *wireReader) str() string {
	r.lit(`"`)
	if !r.ok {
		return ""
	}
	for j := r.i; j < len(r.s); j++ {
		switch c := r.s[j]; {
		case c == '"':
			v := r.s[r.i:j]
			r.i = j + 1
			return v
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			r.ok = false
			return ""
		}
	}
	r.ok = false
	return ""
}

// digits reads a non-negative integer of at most 18 decimal digits with
// no leading zero — a value no integer type here can overflow.
func (r *wireReader) digits() uint64 {
	if !r.ok {
		return 0
	}
	j := r.i
	var v uint64
	for j < len(r.s) && j-r.i < 19 && '0' <= r.s[j] && r.s[j] <= '9' {
		v = v*10 + uint64(r.s[j]-'0')
		j++
	}
	n := j - r.i
	if n == 0 || n > 18 || (n > 1 && r.s[r.i] == '0') {
		r.ok = false
		return 0
	}
	r.i = j
	return v
}

// row reads one Row.
func (r *wireReader) row() Row {
	var row Row
	r.lit(`{"CSV":`)
	row.CSV = r.str()
	r.lit(`,"Violations":`)
	row.Violations = r.digits()
	r.lit(`,"FirstPred":`)
	row.FirstPred = r.str()
	r.lit(`}`)
	return row
}

// end requires the rest of the input to be JSON whitespace.
func (r *wireReader) end() {
	for r.ok && r.i < len(r.s) {
		switch r.s[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			r.ok = false
		}
	}
}

// artifact reads a shard artifact envelope: key, kind, invariant policy
// and the shard result, in serve.Artifact's field order. Rows and
// checksums are sized for want points.
func (r *wireReader) artifact(want int) shardArtifact {
	var art shardArtifact
	res := &ShardResult{}
	r.lit(`{"key":`)
	art.Key = r.str()
	r.lit(`,"kind":`)
	art.Kind = r.str()
	r.lit(`,"invariants":`)
	r.str()
	r.lit(`,"shard":{"index":`)
	if index := r.digits(); index <= math.MaxInt {
		res.Index = int(index)
	} else {
		r.ok = false
	}
	r.lit(`,"rows":[`)
	res.Rows = make([]Row, 0, want)
	if !r.opt(`]`) {
		for {
			res.Rows = append(res.Rows, r.row())
			if !r.opt(`,`) {
				break
			}
		}
		r.lit(`]`)
	}
	if r.opt(`,"row_sums":[`) {
		res.RowSums = make([]string, 0, want)
		if !r.opt(`]`) {
			for {
				res.RowSums = append(res.RowSums, r.str())
				if !r.opt(`,`) {
					break
				}
			}
			r.lit(`]`)
		}
	}
	if r.opt(`,"digest":`) {
		res.Digest = r.str()
	}
	r.lit(`}}`)
	art.Shard = res
	return art
}

// decodeRow decodes one journaled row: its canonical form directly,
// anything else through json.Unmarshal.
func decodeRow(raw []byte) (Row, error) {
	r := wireReader{s: string(raw), ok: true}
	row := r.row()
	if r.end(); r.ok {
		return row, nil
	}
	var ref Row
	err := json.Unmarshal(raw, &ref)
	return ref, err
}

// decodeArtifact decodes a worker's shard artifact envelope: its
// canonical form directly, anything else through json.Unmarshal.
func decodeArtifact(raw []byte, want int) (shardArtifact, error) {
	r := wireReader{s: string(raw), ok: true}
	art := r.artifact(want)
	if r.end(); r.ok {
		return art, nil
	}
	var ref shardArtifact
	err := json.Unmarshal(raw, &ref)
	return ref, err
}
