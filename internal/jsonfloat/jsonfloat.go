// Package jsonfloat reads and writes JSON numbers as float64s, bit for
// bit as encoding/json does. Scan checks a number's grammar and
// converts it in the same pass over its bytes; Append formats a float64
// as encoding/json's encoder writes it. knorserve's request codec and
// the serving registry's state file both go through this package, so
// one module owns the float format in each direction.
//
// Scan mirrors strconv's atof64 step by step, so its results are
// strconv.ParseFloat's by construction: readFloat's mantissa, exponent
// and truncation flag, then exact float64 arithmetic, then the
// Eisel–Lemire algorithm (Lemire, arXiv:2101.11408;
// https://nigeltao.github.io/blog/2020/eisel-lemire.html), and
// strconv.ParseFloat itself for the rest.
package jsonfloat

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Scan reads the JSON number that starts at b[i] and returns its value
// and the index just past it. The value is strconv.ParseFloat(s, 64)'s
// for the number's bytes s, as encoding/json converts it: a number past
// float64's range returns ±Inf and an error matching strconv.ErrRange,
// and one below it rounds to zero without error. Bytes that break the
// grammar return an error naming the first of them, with end at it, or
// io.ErrUnexpectedEOF when b ends inside the number. Scan stops at the
// first byte that cannot continue the number; the caller checks it.
func Scan(b []byte, i int) (f float64, end int, err error) {
	start := i
	var d decimal
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		// A leading zero changes nothing: the decimal point is set
		// from the digits after it.
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = d.digits(b, i)
	default:
		return 0, i, syntax(b, i, "digit")
	}
	d.dp = d.nd
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || '9' < b[i] {
			return 0, i, syntax(b, i, "digit after decimal point")
		}
		i = d.digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		if i >= len(b) || b[i] < '0' || '9' < b[i] {
			return 0, i, syntax(b, i, "digit in exponent")
		}
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // saturates, as readFloat's does
				e = e*10 + int(b[i]-'0')
			}
		}
		d.dp += e * sign
	}
	if f, ok := d.float(); ok {
		return f, i, nil
	}
	f, err = strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err
}

// syntax reports that b[i] is not the wanted part of a number.
func syntax(b []byte, i int, want string) error {
	if i >= len(b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("offset %d: found %q, want %s", i, b[i], want)
}

// decimal is a number as strconv's readFloat accumulates it: the first
// maxMantDigits significant digits in mant, nd significant digits in
// all, and the decimal point dp digits after the first significant one.
type decimal struct {
	mant       uint64
	nd, ndMant int
	dp         int
	neg, trunc bool
}

// maxMantDigits is how many decimal digits always fit in a uint64.
const maxMantDigits = 19

// digits reads the run of digits at b[i:] into d and returns the index
// past it. A zero before the first significant digit moves the decimal
// point instead, and a nonzero digit past maxMantDigits sets trunc.
// While mant has room for eight more digits, runs of eight are read by
// one load.
func (d *decimal) digits(b []byte, i int) int {
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if d.nd == 0 && c == 0 {
			d.dp--
			continue
		}
		if d.ndMant <= maxMantDigits-8 && len(b)-i >= 8 {
			if v := binary.LittleEndian.Uint64(b[i:]); eightDigits(v) {
				d.mant = d.mant*1e8 + eightValue(v)
				d.nd += 8
				d.ndMant += 8
				i += 7
				continue
			}
		}
		d.nd++
		if d.ndMant < maxMantDigits {
			d.mant = d.mant*10 + uint64(c)
			d.ndMant++
		} else if c != 0 {
			d.trunc = true
		}
	}
	return i
}

// eightDigits reports whether all eight bytes of v are ASCII digits.
// The lowest byte that is not sets its high bit in one of the two
// terms, and no carry or borrow reaches it from the digits below.
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// eightValue is the value of eight ASCII digits loaded little-endian,
// so the first digit is the lowest byte: each step joins neighbouring
// groups of 1, 2 and then 4 digits with one multiply and shift.
func eightValue(v uint64) uint64 {
	v = (v & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (v & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// float converts d as strconv's atof64 does before its slow path. ok is
// false where atof64 would take that path: a halfway case, a result
// outside the normal range, or a truncated mantissa whose upper bound
// rounds differently.
func (d *decimal) float() (float64, bool) {
	exp := 0
	if d.mant != 0 {
		exp = d.dp - d.ndMant
	}
	if !d.trunc {
		if f, ok := exact(d.mant, exp, d.neg); ok {
			return f, true
		}
	}
	f, ok := eiselLemire(d.mant, exp, d.neg)
	if !ok || !d.trunc {
		return f, ok
	}
	up, ok := eiselLemire(d.mant+1, exp, d.neg)
	return f, ok && f == up
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exact computes mant×10^exp in float64 arithmetic when every operand
// and the one rounding step are exact, as strconv's atof64exact does.
func exact(mant uint64, exp int, neg bool) (float64, bool) {
	if mant>>52 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		// Move the zeros a large exponent has spare into the mantissa.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return 0, false
}

// eiselLemire converts mant×10^exp10 to the nearest float64, as
// strconv's eiselLemire64 does, or reports false where the 128-bit
// product cannot decide the rounding or the result is not a normal
// float64. The comments name the sections of the blog post above.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	// Normalization.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)
	// Multiplication.
	pow := &pow10[exp10-minExp10]
	xHi, xLo := bits.Mul64(mant, pow[1])
	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+mant < mant {
		yHi, yLo := bits.Mul64(mant, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Shifting to 54 Bits.
	msb := xHi >> 63
	m := xHi >> (msb + 9)
	exp2 -= 1 ^ msb
	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	// From 54 to 53 Bits.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is 0 (or wrapped) for a subnormal, 0x7FF and up for ±Inf.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fbits := exp2<<52 | m&(1<<52-1)
	if neg {
		fbits |= 1 << 63
	}
	return math.Float64frombits(fbits), true
}

// The powers of ten eiselLemire multiplies by: 10^minExp10 to
// 10^maxExp10, past which every float64 is 0 or ±Inf.
const (
	minExp10 = -348
	maxExp10 = 347
)

// pow10[e-minExp10] is 10^e as a 128-bit mantissa {lo, hi}, shifted so
// its top bit is set and rounded down: strconv's detailedPowersOfTen,
// computed once when the package loads.
var pow10 = powersOfTen()

func powersOfTen() *[maxExp10 - minExp10 + 1][2]uint64 {
	var t [maxExp10 - minExp10 + 1][2]uint64
	var top, rem big.Int
	var buf [16]byte
	set := func(e int, x *big.Int) { // x's top 128 bits are 10^e's row
		top.Rsh(x, uint(x.BitLen()-128)).FillBytes(buf[:])
		t[e-minExp10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten := big.NewInt(10)
	// p is 10^e×2^128, so it has 128 bits or more.
	p := new(big.Int).Lsh(big.NewInt(1), 128)
	for e := 0; e <= maxExp10; e++ {
		set(e, p)
		p.Mul(p, ten)
	}
	// q is ⌊2^1300/10^e⌋: dividing by ten steps e, since
	// ⌊⌊x⌋/10⌋ = ⌊x/10⌋, and ⌊2^1300/10^348⌋ still has 144 bits.
	q := new(big.Int).Lsh(big.NewInt(1), 1300)
	for e := 1; e <= -minExp10; e++ {
		q.QuoRem(q, ten, &rem)
		set(-e, q)
	}
	return &t
}

// Append appends f as encoding/json writes a float64: the shortest 'f'
// form, or 'e' below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded (e-07 → e-7). f must be finite: JSON has no
// spelling for NaN or ±Inf.
func Append(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
