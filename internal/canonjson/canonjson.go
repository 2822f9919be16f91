// Package canonjson is the one reflection-free JSON codec the job
// round trip runs on: the spec a client posts, its dedup key, the
// artifact a worker serves, the shard job a coordinator posts and the
// rows it journals.
//
// The contract is the canonical form: the bytes json.Marshal writes for
// a value. The appenders write exactly those bytes, so every key,
// digest and journal record hashed from them keeps the bytes it had
// under encoding/json. The Reader reads exactly that form and nothing
// else; the first byte it does not expect clears its ok flag, and the
// caller decodes the whole input with encoding/json instead, so the
// inputs accepted, the values decoded and the errors returned are
// always encoding/json's. Fuzz targets in the packages that use it hold
// each codec to encoding/json byte for byte.
package canonjson

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

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

// plain marks the bytes written as is: the ASCII bytes without an
// escape.
var plain = func() (t [256]bool) {
	for c := range utf8.RuneSelf {
		t[c] = jsonEscape[c] == ""
	}
	return t
}()

// AppendString appends s as a JSON string exactly as encoding/json
// writes it: the escapes of jsonEscape, invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(append(b, s[start:i]...), jsonEscape[c]...)
			i++
			start = i
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

// Finite reports whether f has a JSON spelling.
func Finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Hash is the lowercase hex SHA-256 of b: what runstate.HashJSON
// returns for a value whose canonical form is b.
func Hash(b []byte) string {
	return HexSum(sha256.Sum256(b))
}

// HexSum is the lowercase hex spelling of sum, built with the one
// allocation of the string itself.
func HexSum(sum [sha256.Size]byte) string {
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// Reader walks the canonical encoding of a value. Any byte it does not
// expect clears ok; from then on every read is a no-op returning a zero
// value, and the caller decodes the whole input with encoding/json
// instead. Strings are read only when they are plain printable ASCII
// with no escapes, so each one is a substring of the input, byte for
// byte what encoding/json would decode. Numbers are read in JSON's
// number grammar and converted with strconv, as encoding/json converts
// them.
type Reader struct {
	s  string
	i  int
	ok bool
}

// NewReader returns a Reader at the start of s.
func NewReader(s string) Reader {
	return Reader{s: s, ok: true}
}

// OK reports whether every read so far matched the canonical form.
func (r *Reader) OK() bool { return r.ok }

// Offset is the number of bytes consumed.
func (r *Reader) Offset() int { return r.i }

// Opt consumes l if the input continues with it.
func (r *Reader) Opt(l string) bool {
	if r.ok && strings.HasPrefix(r.s[r.i:], l) {
		r.i += len(l)
		return true
	}
	return false
}

// Lit consumes the literal l, which must come next.
func (r *Reader) Lit(l string) {
	if !r.Opt(l) {
		r.ok = false
	}
}

// Str reads one string.
func (r *Reader) Str() string {
	r.Lit(`"`)
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

// Enum reads one string that is usually one of values, and returns
// that value itself, so a decoded name pins no part of the input for as
// long as the name is kept; any other string comes back as a copy.
func (r *Reader) Enum(values ...string) string {
	s := r.Str()
	for _, v := range values {
		if s == v {
			return v
		}
	}
	return strings.Clone(s)
}

// number consumes one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// and whether it is an integer literal (no fraction or exponent).
func (r *Reader) number() (lit string, integer bool) {
	if !r.ok {
		return "", false
	}
	s, j := r.s, r.i
	digits := func() bool {
		k := j
		for j < len(s) && '0' <= s[j] && s[j] <= '9' {
			j++
		}
		return j > k
	}
	if j < len(s) && s[j] == '-' {
		j++
	}
	switch {
	case j < len(s) && s[j] == '0':
		j++
	case !digits():
		r.ok = false
		return "", false
	}
	integer = true
	if j < len(s) && s[j] == '.' {
		j++
		if !digits() {
			r.ok = false
			return "", false
		}
		integer = false
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if !digits() {
			r.ok = false
			return "", false
		}
		integer = false
	}
	lit, r.i = s[r.i:j], j
	return lit, integer
}

// Float reads one float64 as encoding/json decodes it
// (strconv.ParseFloat of the literal); a literal out of float64's
// range leaves the canonical path.
func (r *Reader) Float() float64 {
	f, _ := r.FloatSame("", 0)
	return f
}

// FloatSame reads one float64 as Float does, except that a literal
// equal to same, the literal of a value v read before, returns v
// without converting it again: a grid's axis values repeat. lit is the
// literal read.
func (r *Reader) FloatSame(same string, v float64) (f float64, lit string) {
	lit, _ = r.number()
	if !r.ok {
		return 0, ""
	}
	if lit == same {
		return v, lit
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		r.ok = false
		return 0, ""
	}
	return f, lit
}

// Int reads one integer into an int of bitSize bits as encoding/json
// decodes it (strconv.ParseInt of an integer literal); a fraction, an
// exponent or an overflow leaves the canonical path.
func (r *Reader) Int(bitSize int) int64 {
	lit, integer := r.number()
	if !r.ok || !integer {
		r.ok = false
		return 0
	}
	v, err := strconv.ParseInt(lit, 10, bitSize)
	if err != nil {
		r.ok = false
		return 0
	}
	return v
}

// Uint reads one unsigned integer as encoding/json decodes it into a
// uint64 (strconv.ParseUint of an integer literal).
func (r *Reader) Uint() uint64 {
	lit, integer := r.number()
	if !r.ok || !integer {
		r.ok = false
		return 0
	}
	v, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		r.ok = false
		return 0
	}
	return v
}

// End requires the rest of the input to be JSON whitespace.
func (r *Reader) End() {
	if r.ok && !blank(r.s[r.i:]) {
		r.ok = false
	}
}

// blank reports whether s is only JSON whitespace.
func blank[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

// bufs recycles the scratch buffers bodies are read and artifacts
// appended into.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Borrow returns an empty scratch buffer. Hand it back with Return once
// nothing refers to its bytes: the decoders here copy what they keep.
func Borrow() *[]byte {
	b := bufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// Return hands a buffer from Borrow back for reuse.
func Return(b *[]byte) { bufs.Put(b) }

// ReadAll reads r to its end into *buf, as io.ReadAll does, but into a
// buffer that keeps its capacity from one message to the next.
func ReadAll(buf *[]byte, r io.Reader) ([]byte, error) {
	b := (*buf)[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512) // io.ReadAll's first size
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				return b, nil
			}
			return b, err
		}
	}
}

// ReadBody reads a request body of at most maxBytes into *buf. It
// reads one byte past the budget, so a reader wrapped by
// http.MaxBytesReader with the same budget returns its typed
// *http.MaxBytesError (which handlers map to 413); any other reader
// that runs past the budget gets the same error type.
func ReadBody(buf *[]byte, r io.Reader, maxBytes int64) ([]byte, error) {
	body, err := ReadAll(buf, io.LimitReader(r, maxBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > maxBytes {
		return nil, &http.MaxBytesError{Limit: maxBytes}
	}
	return body, nil
}

var errTrailingData = errors.New("trailing data after value")

// DecodeStrict is the encoding/json reference decoder for request
// bodies: one value into v with unknown fields rejected, followed by
// nothing but JSON whitespace.
func DecodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if !blank(body[dec.InputOffset():]) {
		return errTrailingData
	}
	return nil
}
