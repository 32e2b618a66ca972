package sem

import (
	"math"
	"slices"
	"testing"
)

// refRowCache is the row cache's semantics as a map per partition:
// each partition pins the first cap rows offered to it since the last
// refresh, with the payload offered (nil without one).
type refRowCache struct {
	parts       []map[int32][]float64
	rowsPerPart int
	cap         int
	hits        uint64
}

func (r *refRowCache) part(row int32) map[int32][]float64 {
	return r.parts[min(int(row)/r.rowsPerPart, len(r.parts)-1)]
}

func (r *refRowCache) offer(row int32, vals []float64) {
	if p := r.part(row); len(p) < r.cap {
		if _, ok := p[row]; !ok {
			p[row] = slices.Clone(vals)
		}
	}
}

// FuzzRowCache drives the row cache and refRowCache through rounds of a
// refresh, ascending offers with or without payload (directly, or
// through the engine's sizing refill) and queries, and compares every
// answer: Get's payload bits, Peek, Wants, Len and Hits. A payload Get
// returns must have its length as its capacity.
func FuzzRowCache(f *testing.F) {
	f.Add(uint16(100), uint8(3), uint8(1), uint16(10), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint16(1000), uint8(16), uint8(2), uint16(200), []byte{1, 3, 0, 2, 255, 7, 9, 1, 1, 1, 40, 2, 3})
	f.Add(uint16(37), uint8(1), uint8(3), uint16(0), []byte{2, 1, 2, 1, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, n uint16, d, parts uint8, capRows uint16, ops []byte) {
		rows := 1 + int(n)%3000
		rowLen := 1 + int(d)%24
		nParts := 1 + int(parts)%5
		capBytes := int(capRows) % (rows + 1) * rowLen * 8
		rc := NewRowCache(rows, rowLen*8, nParts, capBytes, DefaultICache)
		ref := &refRowCache{
			parts:       make([]map[int32][]float64, nParts),
			rowsPerPart: (rows + nParts - 1) / nParts,
			cap:         max(1, max(1, capBytes/(rowLen*8))/nParts),
		}
		payload := func(round int, row int32) []float64 {
			v := make([]float64, rowLen)
			for j := range v {
				v[j] = float64(round)*1e6 + float64(row) + float64(j)/64
			}
			return v
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for round := 0; len(ops) > 0 && round < 16; round++ {
			rc.BeginRefresh()
			for i := range ref.parts {
				ref.parts[i] = map[int32][]float64{}
			}
			mode := next()
			withData, viaRefill := mode&1 != 0, mode&2 != 0
			// Ascending offers, each 0-8 rows past the one before: a step
			// of 0 offers a row again, which pins nothing new.
			var offered []int32
			for r := int32(next() % 9); int(r) < rows && len(ops) > 0; r += int32(next() % 9) {
				offered = append(offered, r)
			}
			if viaRefill {
				var fetch func(int32) ([]float64, error)
				if withData {
					fetch = func(r int32) ([]float64, error) { return payload(round, r), nil }
				}
				if err := rc.refill(slices.Values(offered), fetch); err != nil {
					t.Fatal(err)
				}
				for _, r := range offered {
					ref.offer(r, payloadIf(withData, payload(round, r)))
				}
			} else {
				for _, r := range offered {
					_, present := ref.part(r)[r]
					if want := !present && len(ref.part(r)) < ref.cap; rc.Wants(r) != want {
						t.Fatalf("round %d: Wants(%d) = %v, reference %v", round, r, !want, want)
					}
					if withData {
						rc.OfferData(r, payload(round, r))
					} else {
						rc.Offer(r)
					}
					ref.offer(r, payloadIf(withData, payload(round, r)))
				}
			}
			total := 0
			for _, p := range ref.parts {
				total += len(p)
			}
			if rc.Len() != total {
				t.Fatalf("round %d: Len %d, reference %d", round, rc.Len(), total)
			}
			// Queries: every row in a stride from a fuzzed start.
			stride := 1 + int(next())%7
			for i := int(next()) % rows; i < rows; i += stride {
				r := int32(i)
				want, ok := ref.part(r)[r]
				if rc.Peek(r) != ok {
					t.Fatalf("round %d: Peek(%d) = %v, reference %v", round, r, !ok, ok)
				}
				if got := rc.Wants(r); got != (!ok && len(ref.part(r)) < ref.cap) {
					t.Fatalf("round %d: Wants(%d) = %v after the offers", round, r, got)
				}
				got, gotOK := rc.Get(r)
				if ok {
					ref.hits++
				}
				if gotOK != ok || (got == nil) != (want == nil) {
					t.Fatalf("round %d: Get(%d) = %v, %v; reference %v, %v", round, r, got, gotOK, want, ok)
				}
				if cap(got) != len(got) {
					t.Fatalf("round %d: Get(%d) has length %d, capacity %d", round, r, len(got), cap(got))
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("round %d: Get(%d)[%d] = %v, offered %v", round, r, j, got[j], want[j])
					}
				}
			}
			if rc.Hits() != ref.hits {
				t.Fatalf("round %d: Hits %d, reference %d", round, rc.Hits(), ref.hits)
			}
		}
	})
}

func payloadIf(with bool, vals []float64) []float64 {
	if with {
		return vals
	}
	return nil
}

var rowSink int

// BenchmarkRowCacheGet looks up the rows of one partition of a full
// d16-sized row cache (50000 rows of 16 values, two partitions of 3125
// pinned rows, every eighth row pinned) in row order, one Get per op:
// an eighth of the lookups hit, as on d16's compute passes.
func BenchmarkRowCacheGet(b *testing.B) {
	const n, d = 50000, 16
	rc := NewRowCache(n, d*8, 2, n*d*8/8, DefaultICache)
	row := make([]float64, d)
	for r := int32(0); r < n; r += 8 {
		rc.OfferData(r, row)
	}
	if rc.Len() != rc.CapacityRows() {
		b.Fatalf("%d rows pinned, capacity %d", rc.Len(), rc.CapacityRows())
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for k := 0; k < b.N; k++ {
		if vals, ok := rc.Get(int32(k % (n / 2))); ok {
			hits += len(vals)
		}
	}
	rowSink = hits
}
