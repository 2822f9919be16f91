package canonjson

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// appendBoth appends f with fn twice after a one-byte prefix: with 32
// bytes of spare capacity, where the float is written in place, and
// with 31, where it goes through the scratch buffer. It returns the
// second result without its prefix, or fails when the two differ.
func appendBoth(t testing.TB, name string, fn func([]byte, float64) []byte, f float64) string {
	var room, short [33]byte
	room[0], short[0] = 'x', 'x'
	inPlace := fn(room[:1], f)
	full := fn(short[:1:32], f)
	if string(inPlace) != string(full) || full[0] != 'x' {
		t.Fatalf("%s(%#016x): %q in place, %q through scratch", name, math.Float64bits(f), inPlace, full)
	}
	return string(full[1:])
}

// checkG holds AppendG to strconv's shortest 'g' form of f.
func checkG(t testing.TB, f float64) {
	var want [40]byte
	if g, w := appendBoth(t, "AppendG", AppendG, f), strconv.AppendFloat(want[:0], f, 'g', -1, 64); g != string(w) {
		t.Fatalf("AppendG(%#016x) = %s, strconv = %s", math.Float64bits(f), g, w)
	}
}

// checkJSON holds AppendFloat to json.Marshal of a finite f.
func checkJSON(t testing.TB, f float64) {
	if !Finite(f) {
		return
	}
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if g := appendBoth(t, "AppendFloat", AppendFloat, f); g != string(want) {
		t.Fatalf("AppendFloat(%#016x) = %s, json.Marshal = %s", math.Float64bits(f), g, want)
	}
}

// checkBoth runs both oracles on f and -f. The check helpers skip
// t.Helper, which would cost more than the checks over millions of
// values; their messages name the float.
func checkBoth(t testing.TB, f float64) {
	for _, v := range []float64{f, -f} {
		checkG(t, v)
		checkJSON(t, v)
	}
}

// TestShortestFloatEdges covers every power of two and its two
// neighbours, the floats around every power of ten, zeros, subnormals,
// the extremes, the non-finite values and the layout boundaries.
func TestShortestFloatEdges(t *testing.T) {
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		checkBoth(t, p)
		checkBoth(t, math.Nextafter(p, 0))
		checkBoth(t, math.Nextafter(p, math.Inf(1)))
	}
	for k := -325; k <= 309; k++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		for i, v := 0, p; i < 3 && v != 0; i, v = i+1, math.Nextafter(v, 0) {
			checkBoth(t, v)
		}
		for i, v := 0, p; i < 3 && !math.IsInf(v, 0); i, v = i+1, math.Nextafter(v, math.Inf(1)) {
			checkBoth(t, v)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 8e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
		math.MaxFloat64, 1e-4, 9.999999999999999e-5, 1e-5, 1e5, 999999, 1e6, 999999.9999999999,
		1e-6, 9.99999999999999e-7, 1e21, 999999999999999900000, 1e20, 123456789, 0.1, 0.2, 0.3,
		1.0 / 3, 2.0 / 3, 5e-324, 1.7976931348623157e308, 4.35, 1.5, 0.5, 100, 1e23, 5e-7,
		9007199254740991, 9007199254740992, 9007199254740993, 4503599627370496.5,
	} {
		checkBoth(t, f)
	}
}

// TestShortestFloatIntegers covers the integers and short decimals the
// exact-integer branch and the trailing-zero trim see most.
func TestShortestFloatIntegers(t *testing.T) {
	n := 100_000
	if testing.Short() || raceEnabled {
		n = 10_000
	}
	for i := 0; i < n; i++ {
		checkBoth(t, float64(i))
		checkBoth(t, float64(i)/1000)
		checkBoth(t, float64(i)*1e9)
	}
	for i := uint(0); i < 64; i++ {
		for _, d := range []int64{-1, 0, 1} {
			checkBoth(t, float64(int64(1)<<i+d))
		}
	}
}

// TestShortestFloatRandom holds both layouts to their oracles on
// seeded random bit patterns, which cover every exponent, and on
// random values across the ranges map.csv rows hold (gains, queue
// lengths, bounds and contraction ratios). The JSON layout shares the
// digits of the 'g' one, and json.Marshal costs several times strconv,
// so it sees one pattern in eight.
func TestShortestFloatRandom(t *testing.T) {
	n := 1 << 21
	if testing.Short() || raceEnabled {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		checkG(t, f)
		if i%8 == 0 {
			checkJSON(t, f)
		}
	}
	for i := 0; i < n/16; i++ {
		checkBoth(t, math.Pow(10, -8+14*rng.Float64()))
	}
}

// FuzzAppendG holds AppendG to strconv.AppendFloat(b, f, 'g', -1, 64).
func FuzzAppendG(f *testing.F) {
	for _, v := range []float64{0, 1, -1, 0.1, 1e6, 1e-5, 123456.7, 5e-324, 8e-323, math.MaxFloat64, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkG(t, math.Float64frombits(u))
	})
}

// FuzzAppendFloat holds AppendFloat to json.Marshal.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, -1, 0.1, 1e21, 1e-6, 9.99e-7, 1e20, 5e-324, 1e-7, 1e-100, math.MaxFloat64} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkJSON(t, math.Float64frombits(u))
	})
}

// BenchmarkAppendFloat is the canonjson.append_float rung: one shortest
// float per operation, in the 'g' layout of map.csv and in the JSON
// layout, through this package and through strconv, over values the
// size of a row's bound, max queue and ρ. It reports ns/float.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Pow(10, -3+10*rng.Float64())
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"g", AppendG},
		{"g-strconv", func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }},
		{"json", AppendFloat},
		{"json-strconv", appendFloatStrconv},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf [40]byte
			for i := 0; i < b.N; i++ {
				benchLen += len(bc.fn(buf[:0], vals[i&1023]))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/float")
		})
	}
}

var benchLen int
