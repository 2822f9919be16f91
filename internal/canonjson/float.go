package canonjson

import (
	"math"
	"math/bits"
	"strconv"
)

// Shortest floats. Every float the product writes on its hot paths —
// map.csv columns in strconv's 'g' layout, JSON numbers in
// encoding/json's — is the shortest decimal that reads back to the same
// float64, which strconv finds with Ryu. shortest finds the same digits
// with Schubfach (R. Giulietti, "The Schubfach way to render doubles",
// 2020): three 128-bit products against pow10Sig, then a choice between
// at most four candidates. The layouts write the digits two at a time.
// Zeros are written as "0" or "-0"; subnormals and non-finite values go
// to strconv: Go's shortest choice differs from Schubfach's at some tiny
// subnormals (8e-323), and none of them is on a hot path.

const (
	// pow10Min and pow10Max bound the k of the 10^k shortest multiplies
	// by: −⌊log₁₀ 2^q⌋ over the normal binary exponents q.
	pow10Min = -292
	pow10Max = 324

	expBias  = 1023 + 52 // value = c · 2^(e − expBias) for a normal float
	fracBits = 52
)

// digitPairs spells 00 through 99.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// floorLog2Pow10 is ⌊log₂ 10^k⌋ for |k| ≤ 1233.
func floorLog2Pow10(k int) int { return k * 1741647 >> 19 }

// roundToOdd is ⌊g·cp / 2^128⌋ with its last bit set when the 128 bits
// dropped are at least 2^65, the rounding to odd Schubfach compares
// its candidates on.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if z > 1 {
		y1 |= 1
	}
	return y1
}

// shortest returns the shortest decimal s·10^k that rounds to the
// normal float64 with fraction bits frac and biased exponent exp (1 ≤
// exp ≤ 2046), the one nearest the float when several are as short,
// the even one on a tie, as strconv picks it. An integer below 2^53
// comes back whole with k = 0; s may then end in zeros.
func shortest(frac uint64, exp int) (s uint64, k int) {
	c := frac | 1<<fracBits
	q := exp - expBias
	if q <= 0 && q > -fracBits-1 && c&(1<<uint(-q)-1) == 0 {
		return c >> uint(-q), 0
	}
	odd := c & 1
	// At a power of two the gap to the float below is half the gap
	// above, and the interval is a quarter narrower on that side.
	var closer uint64
	if frac == 0 && exp > 1 {
		closer = 1
		k = (q*1262611 - 524031) >> 22 // ⌊log₁₀ (3/4)·2^q⌋
	} else {
		k = q * 1262611 >> 22 // ⌊log₁₀ 2^q⌋
	}
	h := uint(q + floorLog2Pow10(-k) + 1) // 1 ≤ h ≤ 4
	g := &pow10Sig[-k-pow10Min]
	vbl := roundToOdd(g, (4*c-2+closer)<<h)
	vb := roundToOdd(g, 4*c<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	lower, upper := vbl+odd, vbr-odd

	s = vb >> 2
	if s >= 10 {
		// One digit shorter: at most one multiple of 10 of the scale
		// fits in the interval.
		sp := s / 10
		upIn := lower <= 40*sp
		wpIn := 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return sp, k + 1
		}
	}
	uIn := lower <= 4*s
	wIn := 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// digits writes the shortest digits of the normal float with fraction
// bits frac and biased exponent exp at the end of buf, two at a time,
// trailing zeros trimmed. It returns where they start and end in buf,
// and dp, the position of the decimal point counted from the first
// digit: the float reads 0.d₁d₂…·10^dp.
func digits(buf *[24]byte, frac uint64, exp int) (start, end, dp int) {
	s, k := shortest(frac, exp)
	i := len(buf)
	// s < 10^17, so the part above its last eight digits fits 32 bits,
	// and both halves are written with 32-bit arithmetic.
	if s >= 1e8 {
		hi := s / 1e8
		for lo, j := uint32(s-hi*1e8), 0; j < 4; j++ {
			q := lo / 100
			r := (lo - q*100) * 2
			i -= 2
			buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
			lo = q
		}
		s = hi
	}
	u := uint32(s)
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		i--
		buf[i] = byte('0' + u)
	}
	end = len(buf)
	dp = end - i + k
	for buf[end-1] == '0' {
		end--
	}
	return i, end, dp
}

// normal reports whether the float with these bits is finite, nonzero
// and not subnormal: the floats shortest takes.
func normal(u uint64) (frac uint64, exp int, ok bool) {
	exp = int(u>>fracBits) & 0x7FF
	return u & (1<<fracBits - 1), exp, exp != 0 && exp != 0x7FF
}

// AppendG appends f as strconv.AppendFloat(b, f, 'g', -1, 64) writes
// it, byte for byte: the shortest digits, in 'e' form (d.ddde±dd) when
// the decimal exponent is below −4 or at least 6, else in 'f' form.
func AppendG(b []byte, f float64) []byte { return appendShortest(b, f, false) }

// AppendFloat appends a finite float64 as encoding/json writes it:
// shortest 'f' form, or 'e' form for magnitudes below 1e-6 or from 1e21
// up, with a negative exponent unpadded (e-9, not e-09). json.Marshal
// rejects NaN and ±Inf; callers check Finite first and hand such values
// to encoding/json for its error.
func AppendFloat(b []byte, f float64) []byte { return appendShortest(b, f, true) }

// appendShortest appends f in encoding/json's layout when json is set,
// else in strconv's 'g' layout.
func appendShortest(b []byte, f float64, json bool) []byte {
	u := math.Float64bits(f)
	frac, exp, ok := normal(u)
	switch {
	case !ok && u<<1 == 0: // ±0
		if u != 0 {
			b = append(b, '-')
		}
		return append(b, '0')
	case !ok && json:
		return appendFloatStrconv(b, f)
	case !ok:
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	var buf [24]byte
	start, end, dp := digits(&buf, frac, exp)
	// The float is written straight into b's spare capacity when it has
	// room for the longest one, else into scratch and copied.
	var scratch [32]byte
	out := &scratch
	if cap(b)-len(b) >= len(out) {
		out = (*[32]byte)(b[len(b) : len(b)+len(out)])
	}
	n := 0
	if u>>63 != 0 {
		out[0] = '-'
		n = 1
	}
	eForm := dp-1 < -4 || dp-1 >= 6
	if json {
		abs := math.Abs(f)
		eForm = abs < 1e-6 || abs >= 1e21
	}
	if eForm {
		n = layoutE(out, n, buf[start:end], dp-1, !json)
	} else {
		n = layoutF(out, n, buf[start:end], dp)
	}
	if out == &scratch {
		return append(b, scratch[:n]...)
	}
	return b[:len(b)+n]
}

// appendFloatStrconv is AppendFloat through strconv, for the floats
// shortest does not take.
func appendFloatStrconv(b []byte, f float64) []byte {
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

// layoutE writes d₁[.d₂…]e±x into out at n and returns the new length.
// A one-digit exponent is padded to two (e-07) when pad is set, as
// strconv writes it; encoding/json unpads negative ones and never has a
// positive one below 21.
func layoutE(out *[32]byte, n int, d []byte, x int, pad bool) int {
	out[n] = d[0]
	n++
	if len(d) > 1 {
		out[n] = '.'
		n++
		n += copy(out[n:], d[1:])
	}
	out[n], out[n+1] = 'e', '+'
	if x < 0 {
		out[n+1] = '-'
		x = -x
	}
	n += 2
	switch {
	case x >= 100:
		out[n] = byte('0' + x/100)
		x %= 100
		n++
	case x < 10 && !pad:
		out[n] = byte('0' + x)
		return n + 1
	}
	out[n], out[n+1] = digitPairs[2*x], digitPairs[2*x+1]
	return n + 2
}

// layoutF writes the digits d with the decimal point dp digits in, as
// strconv's 'f' form: zeros pad an integer part that runs past the
// digits, a "0." and zeros lead a fraction that starts before them.
func layoutF(out *[32]byte, n int, d []byte, dp int) int {
	switch {
	case dp <= 0:
		out[n], out[n+1] = '0', '.'
		n += 2
		for ; dp < 0; dp++ {
			out[n] = '0'
			n++
		}
		n += copy(out[n:], d)
	case dp >= len(d):
		n += copy(out[n:], d)
		for i := len(d); i < dp; i++ {
			out[n] = '0'
			n++
		}
	default:
		n += copy(out[n:], d[:dp])
		out[n] = '.'
		n++
		n += copy(out[n:], d[dp:])
	}
	return n
}
