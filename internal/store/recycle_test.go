package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"knor/internal/matrix"
)

// memStore encodes m in the store format in memory, so that fuzz
// iterations open files without touching the disk.
func memStore(m *matrix.Dense, elem int) *bytes.Reader {
	b := encodeHeader(header{n: m.Rows(), d: m.Cols(), elem: elem, pageSize: PageSize})
	for _, v := range m.Data {
		if elem == 8 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		} else {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		}
	}
	return bytes.NewReader(b)
}

// checkRow compares a decoded row against the source row at the file's
// element width.
func checkRow(t *testing.T, got []float64, m *matrix.Dense, i, elem int) {
	t.Helper()
	for j, v := range got {
		want := m.At(i, j)
		if elem == 4 {
			want = float64(float32(want))
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("row %d col %d: %v, source %v", i, j, v, want)
		}
	}
}

// checkPinsReleased asserts that no page is pinned or in flight once
// every reader has released and the prefetch pool has stopped, and
// that the cache and its free lists stay inside their capacity.
func checkPinsReleased(t *testing.T, f *File) {
	t.Helper()
	for i := range f.cache.shards {
		s := &f.cache.shards[i]
		s.mu.Lock()
		for _, pg := range s.pages {
			if pg.pins != 0 || pg.fetching {
				s.mu.Unlock()
				t.Fatalf("page %d: %d pins, fetching %v after every release", pg.id, pg.pins, pg.fetching)
			}
		}
		if s.n > s.cap || len(s.free) > s.cap {
			s.mu.Unlock()
			t.Fatalf("shard %d: %d resident and %d free pages, capacity %d", i, s.n, len(s.free), s.cap)
		}
		s.mu.Unlock()
	}
}

// TestPinnedPageSurvivesEviction: a page evicted while a Reader holds
// it keeps its bytes while other readers recycle every other buffer of
// the cache, and goes on the free list only when the Reader releases it.
func TestPinnedPageSurvivesEviction(t *testing.T) {
	m := testMatrix(32*16, 16, 11) // 128-byte rows, 32 per page, 16 pages
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 2 * PageSize, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	held := f.Reader()
	row, err := held.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	checkRow(t, row, m, 0, 8)
	pg := held.held[0]
	s := f.cache.shard(0)

	// Another reader streams pages 1..15 through the two-page cache:
	// page 0 is evicted by page 2, and from page 4 on every miss reuses
	// the buffer the one before it evicted.
	other := f.Reader()
	for i := 32; i < m.Rows(); i++ {
		row, err := other.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		checkRow(t, row, m, i, 8)
	}
	other.Release()
	if pg.resident {
		t.Fatal("page 0 still resident after 15 later pages went through a two-page cache")
	}
	for _, free := range s.free {
		if free == pg {
			t.Fatal("pinned page 0 went on the free list")
		}
	}
	for i := 1; i < 32; i++ {
		row, err := held.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		checkRow(t, row, m, i, 8)
	}
	if held.held[0] != pg {
		t.Fatal("rows of the held page acquired it again")
	}
	held.Release()
	recycled := false
	for _, free := range s.free {
		recycled = recycled || free == pg
	}
	if !recycled {
		t.Fatal("evicted page 0 not recycled by its last release")
	}
	hits, misses := f.CacheStats()
	if want := uint64(16); misses != want {
		t.Fatalf("%d misses, want one per page (%d)", misses, want)
	}
	if want := uint64(m.Rows() - 16); hits != want {
		t.Fatalf("%d hits, want one per row after its page's first (%d)", hits, want)
	}
	checkPinsReleased(t, f)
}

// lruOrder lists shard 0's resident pages, most recent first.
func lruOrder(f *File) []int64 {
	s := &f.cache.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []int64
	for pg := s.lru.next; pg != &s.lru; pg = pg.next {
		ids = append(ids, pg.id)
	}
	return ids
}

// TestReadAheadUseOnce: the first demand hit on a prefetched page
// leaves it where the prefetch inserted it, so the LRU evicts pages
// already read before pages prefetched with them and still to be read;
// a later hit moves a page to the front as in any LRU.
func TestReadAheadUseOnce(t *testing.T) {
	m := testMatrix(32*8, 16, 15) // 8 pages of 32 rows
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 3 * PageSize, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	read := func(r *Reader, rows ...int) {
		t.Helper()
		for _, i := range rows {
			row, err := r.Row(i)
			if err != nil {
				t.Fatal(err)
			}
			checkRow(t, row, m, i, 8)
		}
	}
	want := func(step string, ids ...int64) {
		t.Helper()
		if got := lruOrder(f); fmt.Sprint(got) != fmt.Sprint(ids) {
			t.Fatalf("%s: LRU %v, want %v", step, got, ids)
		}
	}
	var fs fetchScratch
	if err := f.ensure(0, 2, nil, &fs); err != nil { // a pool worker's read-ahead
		t.Fatal(err)
	}
	want("read-ahead of pages 0-2", 2, 1, 0)
	a, b, c := f.Reader(), f.Reader(), f.Reader()
	read(a, 0, 1, 31)
	want("first use of page 0", 2, 1, 0)
	read(a, 3*32)
	want("miss on page 3", 3, 2, 1)
	read(b, 32)
	want("first use of page 1", 3, 2, 1)
	read(c, 33)
	want("second use of page 1", 1, 3, 2)
	a.Release()
	b.Release()
	c.Release()
	checkPinsReleased(t, f)
}

// TestPrefetchKeepsItsRange: a prefetch whose range spans more than one
// fetch piece touches the range's resident pages before its first fetch,
// so the pages it evicts lie outside the range.
func TestPrefetchKeepsItsRange(t *testing.T) {
	m := testMatrix(32*48, 16, 16) // 48 pages
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 32 * PageSize, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := f.Reader()
	for _, p := range append(seq(20, 32), seq(0, 20)...) {
		if _, err := r.Row(32 * p); err != nil {
			t.Fatal(err)
		}
	}
	r.Release()
	// LRU, least recent first: pages 20..31, then 0..19. The prefetch of
	// pages 16..40 finds 16..31 resident in its first piece and fetches
	// 32..40 in its second, evicting nine pages.
	var fs fetchScratch
	if err := f.ensure(16, 40, nil, &fs); err != nil {
		t.Fatal(err)
	}
	got := lruOrder(f)
	resident := map[int64]bool{}
	for _, p := range got {
		resident[p] = true
	}
	for p := int64(16); p <= 40; p++ {
		if !resident[p] {
			t.Fatalf("page %d of the prefetched range evicted; LRU %v", p, got)
		}
	}
	for p := int64(0); p < 9; p++ {
		if resident[p] {
			t.Fatalf("page %d outside the range kept while the range was fetched; LRU %v", p, got)
		}
	}
}

func seq(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestRecycleStress runs four readers and two prefetch workers over a
// cache of one or two pages per shard, checking every element of every
// row. A buffer recycled while a reader still holds it shows as a wrong
// row here, and as a data race under -race.
func TestRecycleStress(t *testing.T) {
	m := testMatrix(2048, 24, 12) // 192-byte rows: some span two pages
	path := writeTemp(t, m, 8)
	for _, perShard := range []int{1, 2} {
		f, err := Open(path, Options{CacheBytes: 4 * perShard * PageSize, Shards: 4, PrefetchWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*perShard + w)))
				r := f.Reader()
				defer r.Release()
				for step := 0; step < 40; step++ {
					// A run of consecutive rows from a random start, its
					// rows hinted to the pool first.
					lo := rng.Intn(m.Rows())
					hi := min(lo+1+rng.Intn(96), m.Rows())
					f.Prefetch(lo, hi, allRows)
					for i := lo; i < hi; i++ {
						row, err := r.Row(i)
						if err != nil {
							t.Error(err)
							return
						}
						for j, v := range row {
							if v != m.At(i, j) {
								t.Errorf("reader %d row %d col %d: %v, source %v", w, i, j, v, m.At(i, j))
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		f.pf.stop()
		f.pf = nil
		checkPinsReleased(t, f)
		if peak := f.CachePeakPages(); peak > f.CacheCapPages() {
			t.Fatalf("peak %d resident pages over capacity %d", peak, f.CacheCapPages())
		}
		f.Close()
	}
}

// TestReaderRowAllocs: once the cache is full, streaming a file 8x the
// cache through a Reader allocates nothing, no page buffer included:
// every miss reuses an evicted page's buffer.
func TestReaderRowAllocs(t *testing.T) {
	m := testMatrix(64*32, 16, 13) // 64 pages
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 8 * PageSize, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := f.Reader()
	pass := func() {
		for i := 0; i < m.Rows(); i++ {
			if _, err := r.Row(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // fill the cache and the scratch buffers
	_, before := f.CacheStats()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("a pass over a file 8x the cache made %v allocations, want 0", allocs)
	}
	if _, after := f.CacheStats(); after-before < 5*64 {
		t.Fatalf("%d misses over 5 passes, want every page missed (%d)", after-before, 5*64)
	}
}

// FuzzReaderRecycle reads random small matrices (either element width,
// a short tail page, rows that may span pages) through two Readers over
// a cache of 1-4 pages per shard, with and without prefetch, in a random
// row order, and checks every row against the source and every pin
// released at the end.
func FuzzReaderRecycle(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(16), true, uint8(0), false, []byte{0, 1, 2, 3, 200, 9, 40, 41})
	f.Add(int64(2), uint16(97), uint16(33), false, uint8(1), true, []byte{7, 7, 255, 0, 13, 31, 5, 5, 5})
	f.Add(int64(3), uint16(40), uint16(600), true, uint8(3), true, []byte{0, 39, 1, 38, 2, 37, 20, 21, 22})
	f.Fuzz(func(t *testing.T, seed int64, n, d uint16, wide bool, perShard uint8, prefetch bool, seq []byte) {
		cols := 1 + int(d)%700
		rows := 1 + int(n)%max(1, 40000/cols)
		elem := 4
		if wide {
			elem = 8
		}
		m := testMatrix(rows, cols, seed)
		src := memStore(m, elem)
		opts := Options{CacheBytes: 2 * (1 + int(perShard)%4) * PageSize, Shards: 2}
		if prefetch {
			opts.PrefetchWorkers = 2
		}
		file, err := OpenReaderAt(src, src.Size(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		readers := [2]*Reader{file.Reader(), file.Reader()}
		for k := 0; k+1 < len(seq); k += 2 {
			i := int(binary.LittleEndian.Uint16(seq[k:])>>1) % rows
			r := readers[seq[k]&1]
			if prefetch && seq[k+1]&2 != 0 {
				file.Prefetch(i, i+3, allRows)
			}
			for ; i < rows; i++ { // a short run from i
				row, err := r.Row(i)
				if err != nil {
					t.Fatal(err)
				}
				checkRow(t, row, m, i, elem)
				if seq[k+1]&1 == 0 {
					break
				}
			}
		}
		readers[0].Release()
		readers[1].Release()
		if file.pf != nil {
			file.pf.stop()
			file.pf = nil
		}
		checkPinsReleased(t, file)
	})
}

// BenchmarkReaderRow streams a file 8x the page cache through one
// Reader, one row per op, without prefetch and with two prefetch
// workers fed a window (a quarter of the cache) at a time, two windows
// ahead of the reader.
func BenchmarkReaderRow(b *testing.B) {
	const cachePages = 64
	m := testMatrix(8*cachePages*32, 16, 14) // 128-byte rows, 8x the cache
	path := writeTemp(b, m, 8)
	for _, workers := range []int{0, 2} {
		b.Run(fmt.Sprintf("prefetch=%d", workers), func(b *testing.B) {
			f, err := Open(path, Options{CacheBytes: cachePages * PageSize, PrefetchWorkers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			window := cachePages / 4 * 32 // rows
			next := 0                     // rows [0, next) of this pass were hinted
			r := f.Reader()
			defer r.Release()
			n := m.Rows()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				i := k % n
				if workers > 0 && i%window == 0 {
					if i == 0 {
						next = 0
					}
					f.Prefetch(next, min(i+3*window, n), allRows)
					next = min(i+3*window, n)
				}
				if _, err := r.Row(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPageBuffersHoldBudget: two readers and two prefetch workers
// stream a file 8x the cache, each its half of the rows with read-ahead
// windows as the knors engine issues them. Pages in flight count
// against the budget, so the shards allocate at most their capacity in
// page buffers, plus one for each page evicted while a reader pinned
// it.
func TestPageBuffersHoldBudget(t *testing.T) {
	const cachePages = 64
	m := testMatrix(8*cachePages*32, 16, 17) // 128-byte rows, 8x the cache
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: cachePages * PageSize, Shards: 2, PrefetchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const window = cachePages / 4 / 2 * 32 // rows: each reader's share of a quarter of the cache
	half := m.Rows() / 2
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r := f.Reader()
			defer r.Release()
			for pass := 0; pass < 3; pass++ {
				next := lo // rows [lo, next) of this pass were hinted
				for i := lo; i < hi; i++ {
					if (i-lo)%window == 0 {
						f.Prefetch(next, min(i+3*window, hi), allRows)
						next = min(i+3*window, hi)
					}
					row, err := r.Row(i)
					if err != nil {
						t.Error(err)
						return
					}
					for j, v := range row {
						if v != m.At(i, j) {
							t.Errorf("row %d col %d: %v, source %v", i, j, v, m.At(i, j))
							return
						}
					}
				}
			}
		}(w*half, (w+1)*half)
	}
	wg.Wait()
	f.pf.stop()
	f.pf = nil
	checkPinsReleased(t, f)
	allocs, pinned := 0, 0
	for i := range f.cache.shards {
		s := &f.cache.shards[i]
		s.mu.Lock()
		allocs += s.allocs
		pinned += s.pinnedEvictions
		s.mu.Unlock()
	}
	if limit := f.CacheCapPages() + pinned; allocs > limit {
		t.Fatalf("%d page buffers allocated for a %d-page cache with %d pages evicted while pinned", allocs, f.CacheCapPages(), pinned)
	}
	t.Logf("%d page buffers for a %d-page cache, %d pages evicted while pinned", allocs, f.CacheCapPages(), pinned)
}
