package canonjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// FuzzReaderNumber holds the number reader to encoding/json: whenever
// Float, Int or Uint reads a whole input, json.Unmarshal decodes the
// same value, bit for bit, into the same Go type.
func FuzzReaderNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1", "-1", "01", "1.", ".5", "1e", "1e+", "+1", "-", "1.5e-7", "1E+10",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "18446744073709551615",
		"18446744073709551616", "1e400", "1e-400", "4.9e-324", "0.1 ", "1_000", "0x10", "Inf", "NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r := NewReader(s)
		f := r.Float()
		if r.End(); r.OK() {
			var ref float64
			if err := json.Unmarshal([]byte(s), &ref); err != nil || math.Float64bits(f) != math.Float64bits(ref) {
				t.Fatalf("Float(%q) = %v; json.Unmarshal = %v, %v", s, f, ref, err)
			}
		}
		r = NewReader(s)
		i64 := r.Int(64)
		if r.End(); r.OK() {
			var ref int64
			if err := json.Unmarshal([]byte(s), &ref); err != nil || i64 != ref {
				t.Fatalf("Int(%q) = %v; json.Unmarshal = %v, %v", s, i64, ref, err)
			}
		}
		r = NewReader(s)
		i32 := r.Int(32)
		if r.End(); r.OK() {
			var ref int32
			if err := json.Unmarshal([]byte(s), &ref); err != nil || i32 != int64(ref) {
				t.Fatalf("Int(%q, 32) = %v; json.Unmarshal = %v, %v", s, i32, ref, err)
			}
		}
		r = NewReader(s)
		u := r.Uint()
		if r.End(); r.OK() {
			var ref uint64
			if err := json.Unmarshal([]byte(s), &ref); err != nil || u != ref {
				t.Fatalf("Uint(%q) = %v; json.Unmarshal = %v, %v", s, u, ref, err)
			}
		}
	})
}

// TestReadAll holds ReadAll to io.ReadAll over readers that return
// short reads, data with EOF, and errors, reusing one buffer throughout.
func TestReadAll(t *testing.T) {
	buf := Borrow()
	defer Return(buf)
	boom := errors.New("boom")
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 70000} {
		data := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
		for name, mk := range map[string]func() io.Reader{
			"plain":   func() io.Reader { return bytes.NewReader(data) },
			"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
			"error":   func() io.Reader { return io.MultiReader(bytes.NewReader(data), iotest.ErrReader(boom)) },
		} {
			want, wantErr := io.ReadAll(mk())
			got, err := ReadAll(buf, mk())
			if !bytes.Equal(got, want) || err != wantErr {
				t.Errorf("%s %d: ReadAll = %d bytes, %v; io.ReadAll = %d bytes, %v", name, n, len(got), err, len(want), wantErr)
			}
		}
	}
}
