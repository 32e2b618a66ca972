package jsonfloat

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// edgeNumbers are the numbers whose conversion takes each of Scan's
// paths at a boundary: more than 19 significant digits on both sides of
// a rounding step, halfway cases, the subnormal and overflow edges, and
// exponents past the saturation point.
var edgeNumbers = []string{
	"0", "-0", "0e5", "-0.0e-5", "1", "-1", "0.1", "1e23", "8.41e21", "5e-324",
	"9007199254740993", "9007199254740992.5", "90071992547409930000000000",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"2.2250738585072011e-308", "2.2250738585072014e-308",
	"4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"1.7976931348623157e308", "1.7976931348623159e308", "1.7976931348623158e308",
	"1e-400", "-1e-400", "1e400", "-1e400",
	"0." + strings.Repeat("0", 30) + "1",
	"1" + strings.Repeat("0", 30) + ".5",
	"12345678901234567890123456789", "0.12345678901234567890123456789",
	"1234567890123456789", "12345678901234567890", "9999999999999999999",
	"99999999999999999999", "18446744073709551615", "18446744073709551616",
	"1e000000000017", "1e-000000000017", "1e123456789012", "1e-123456789012",
	"0e123456789012", "123456789e-999999", "1E+2", "1e+0", "4.35", "100000000",
	"12345678.12345678", "0.000000001234567890123", "-12345678901234567e-30",
	"7.2057594037927933e16", "3.4028234663852886e38", "1.448997445238699",
	// The exponent saturates past 10000 as readFloat's does, so the
	// third reads as the second, though its value overflows.
	"0." + strings.Repeat("0", 1000) + "1e10005",
	"0." + strings.Repeat("0", 10000) + "1e10005",
	"0." + strings.Repeat("0", 10000) + "1e100050",
}

// check holds Scan to strconv.ParseFloat on one JSON number: the same
// bits, an error exactly when ParseFloat errs, and the whole string
// read.
func check(t *testing.T, s string) {
	if msg := mismatch(s); msg != "" {
		t.Helper()
		t.Fatal(msg)
	}
}

func mismatch(s string) string {
	want, wantErr := strconv.ParseFloat(s, 64)
	got, end, err := Scan([]byte(s), 0)
	if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) || end != len(s) ||
		err != nil && !errors.Is(err, strconv.ErrRange) {
		return fmt.Sprintf("Scan(%q) = %v (%#x), end %d, err %v; ParseFloat = %v (%#x), err %v",
			s, got, math.Float64bits(got), end, err, want, math.Float64bits(want), wantErr)
	}
	return ""
}

func TestScanEdges(t *testing.T) {
	for _, s := range edgeNumbers {
		check(t, s)
		check(t, "-"+strings.TrimPrefix(s, "-"))
	}
	// Every power of ten in the table, so each row is multiplied by
	// at least once, and the two just outside it.
	for e := minExp10 - 1; e <= maxExp10+1; e++ {
		check(t, "1e"+strconv.Itoa(e))
		check(t, "9.99999999999999999999e"+strconv.Itoa(e))
	}
}

// TestScanMatchesParseFloat checks about 3 million generated numbers
// against strconv.ParseFloat: the shortest 'g' form of normal draws and
// of random bit patterns, 'e' and 'f' forms at random precisions,
// shortest forms with random digits appended, which run past 19
// significant digits on either side of a rounding step, and random
// digit strings, whose runs meet the eight-digit loads at every offset.
func TestScanMatchesParseFloat(t *testing.T) {
	n := 1 << 19
	if testing.Short() {
		n = 1 << 15
	}
	rng := rand.New(rand.NewSource(1))
	var s []byte
	for i := 0; i < n; i++ {
		bits := math.Float64frombits(rng.Uint64())
		if math.IsNaN(bits) || math.IsInf(bits, 0) {
			bits = math.MaxFloat64
		}
		norm := rng.NormFloat64()
		long := strconv.AppendFloat(s[:0], bits, 'e', -1, 64)
		e := strings.IndexByte(string(long), 'e')
		tail := []byte(strings.Repeat("0", rng.Intn(8)))
		for j := rng.Intn(20); j >= 0; j-- {
			tail = append(tail, byte('0'+rng.Intn(10)))
		}
		if !strings.Contains(string(long[:e]), ".") {
			tail = append([]byte{'.'}, tail...)
		}
		for _, s := range []string{
			strconv.FormatFloat(norm, 'g', -1, 64),
			strconv.FormatFloat(bits, 'g', -1, 64),
			strconv.FormatFloat(bits, 'e', rng.Intn(18), 64),
			strconv.FormatFloat(norm*math.Pow(10, float64(rng.Intn(12)-6)), 'f', rng.Intn(12), 64),
			string(long[:e]) + string(tail) + string(long[e:]),
			randomNumber(rng),
		} {
			check(t, s)
		}
	}
}

// randomNumber is a JSON number of random digits: up to 25 before the
// decimal point, up to 25 after it, leading zeros included, and an
// optional exponent.
func randomNumber(rng *rand.Rand) string {
	digits := func(b []byte, n int) []byte {
		for ; n > 0; n-- {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		return b
	}
	var b []byte
	if rng.Intn(2) == 0 {
		b = append(b, '-')
	}
	if n := rng.Intn(26); n == 0 {
		b = append(b, '0')
	} else {
		b = digits(append(b, byte('1'+rng.Intn(9))), n-1)
	}
	if rng.Intn(4) > 0 {
		b = digits(append(append(b, '.'), strings.Repeat("0", rng.Intn(12))...), 1+rng.Intn(25))
	}
	if rng.Intn(2) == 0 {
		b = append(b, "e+-"[rng.Intn(3)])
		if c := b[len(b)-1]; c != 'e' {
			b = append(b[:len(b)-1], 'e', c)
		}
		b = digits(b, 1+rng.Intn(3))
	}
	return string(b)
}

// TestPowersOfTen pins table rows against strconv's published values
// and checks every row's top bit and rounding against 10^e.
func TestPowersOfTen(t *testing.T) {
	for _, c := range []struct {
		e      int
		hi, lo uint64
	}{
		{0, 0x8000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10[c.e-minExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", c.e, got[1], got[0], c.hi, c.lo)
		}
	}
	one := big.NewInt(1)
	for e := minExp10; e <= maxExp10; e++ {
		row := pow10[e-minExp10]
		if row[1]>>63 != 1 {
			t.Fatalf("10^%d: top bit clear", e)
		}
		m := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		m.Or(m, new(big.Int).SetUint64(row[0]))
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		// 10^e lies in [m, m+1) × 2^s for some s: for e < 0, a power
		// of two lies in [m, m+1) × 10^-e.
		lo, hi := new(big.Int).Set(m), new(big.Int).Add(m, one)
		if e < 0 {
			lo.Mul(lo, p)
			hi.Mul(hi, p)
			p.Lsh(one, uint(lo.BitLen()))
		} else if s := p.BitLen() - 128; s > 0 {
			lo.Lsh(lo, uint(s))
			hi.Lsh(hi, uint(s))
		} else {
			p.Lsh(p, uint(-s))
		}
		if lo.Cmp(p) > 0 || p.Cmp(hi) >= 0 {
			t.Fatalf("10^%d: row %#x%016x is not 10^e rounded down", e, row[1], row[0])
		}
	}
}

// TestScanGrammar covers bytes that break the number grammar, the
// bytes after a number (left for the caller), and numbers that end at
// the end of the slice, where the eight-digit load must not read past.
func TestScanGrammar(t *testing.T) {
	for _, c := range []struct {
		in  string
		end int
		err string
	}{
		{"", 0, "EOF"}, {"-", 1, "EOF"}, {"1.", 2, "EOF"}, {"1e", 2, "EOF"}, {"1e+", 3, "EOF"},
		{"x", 0, "want digit"}, {"-x", 1, "want digit"}, {"+1", 0, "want digit"}, {".5", 0, "want digit"},
		{"1.e5", 2, "after decimal point"}, {"1ex", 2, "in exponent"}, {"1e+-1", 3, "in exponent"},
		{"01", 1, ""}, {"-0.5,", 4, ""}, {"1.5]", 3, ""}, {"1e5e5", 3, ""}, {"12345678", 8, ""},
		{"123456789012345678901234567890", 30, ""}, {"0.12345678", 10, ""}, {"1_0", 1, ""}, {"Inf", 0, "want digit"},
	} {
		_, end, err := Scan([]byte(c.in), 0)
		if end != c.end || (err == nil) != (c.err == "") || err != nil && !strings.Contains(err.Error(), c.err) {
			t.Errorf("Scan(%q): end %d, err %v; want end %d, err containing %q", c.in, end, err, c.end, c.err)
		}
		if c.err == "EOF" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Scan(%q): err %v, want io.ErrUnexpectedEOF", c.in, err)
		}
	}
	// A number in the middle of a buffer: offsets are b's.
	b := []byte(`[1,22.5e1,-0.125]`)
	for i, want := range map[int]float64{1: 1, 3: 225, 10: -0.125} {
		if f, _, err := Scan(b, i); err != nil || f != want {
			t.Errorf("Scan at %d: %v, %v; want %v", i, f, err, want)
		}
	}
}

// FuzzScan holds Scan to encoding/json's grammar and strconv's values:
// a whole input Scan reads without error is a JSON number with
// ParseFloat's bits, and every JSON number is read whole with them.
func FuzzScan(f *testing.F) {
	for _, s := range edgeNumbers {
		f.Add(s)
	}
	for _, s := range []string{"-", "1.", "1e", "01", "-0.5,", ".5", "+1", "1_0", "0x10", "1e+-1", " 1", "1 "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, end, err := Scan([]byte(s), 0)
		number := s != "" && (s[0] == '-' || '0' <= s[0] && s[0] <= '9') &&
			json.Valid([]byte(s)) && strings.TrimRight(s, " \t\r\n") == s
		if !number {
			if err == nil && end == len(s) {
				t.Fatalf("Scan read %q whole, which is not a JSON number", s)
			}
			return
		}
		check(t, s)
		if err == nil && math.IsInf(got, 0) {
			t.Fatalf("Scan(%q) = %v without error", s, got)
		}
	})
}

func TestAppend(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 9.99e-7, 1e-6, 123456.789, 1e20, 1e21, -1.5e300, math.MaxFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := Append(nil, f); string(got) != string(want) {
			t.Errorf("Append(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
}

// BenchmarkScan reads the numbers of a d32 /v1/assign body: shortest
// forms of normal draws.
func BenchmarkScan(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var body []byte
	for i := 0; i < 2048; i++ {
		body = strconv.AppendFloat(body, rng.NormFloat64(), 'g', -1, 64)
		body = append(body, ',')
	}
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		for i := 0; i < len(body); i++ {
			_, end, err := Scan(body, i)
			if err != nil {
				b.Fatal(err)
			}
			i = end
		}
	}
}
