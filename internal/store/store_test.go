package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"knor/internal/matrix"
)

func testMatrix(n, d int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func writeTemp(t testing.TB, m *matrix.Dense, elem int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.knor")
	if err := WriteDense(m, path, elem); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripFloat64(t *testing.T) {
	m := testMatrix(503, 17, 1) // rowBytes 136, not a page divisor
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Rows() != 503 || f.Cols() != 17 || f.ElemBytes() != 8 {
		t.Fatalf("header mismatch: %dx%d elem %d", f.Rows(), f.Cols(), f.ElemBytes())
	}
	r := f.Reader()
	for i := 0; i < m.Rows(); i++ {
		row, err := r.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			if v != m.At(i, j) {
				t.Fatalf("row %d col %d: %v != %v", i, j, v, m.At(i, j))
			}
		}
	}
	// And via ReadDense.
	whole, err := ReadDense(path)
	if err != nil {
		t.Fatal(err)
	}
	if !whole.Equal(m, 0) {
		t.Fatal("ReadDense differs")
	}
}

func TestRoundTripFloat32Rounds(t *testing.T) {
	m := testMatrix(64, 9, 2)
	path := writeTemp(t, m, 4)
	f, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := f.Reader()
	for i := 0; i < m.Rows(); i++ {
		row, err := r.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			if want := float64(float32(m.At(i, j))); v != want {
				t.Fatalf("row %d col %d: %v != %v", i, j, v, want)
			}
		}
	}
}

func TestWriterRowCountEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.knor")
	w, err := Create(path, 10, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 4)
	for i := 0; i < 5; i++ {
		if err := w.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("short writer closed cleanly")
	}
	if err := w.WriteRow(make([]float64, 3)); err == nil {
		t.Fatal("wrong-width row accepted")
	}
}

func TestOpenRejectsLegacyMatrixFormat(t *testing.T) {
	m := testMatrix(20, 4, 3)
	path := filepath.Join(t.TempDir(), "legacy.knor")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("legacy format not rejected with ErrBadMagic: %v", err)
	}
	if ok, err := SniffStore(path); err != nil || ok {
		t.Fatalf("SniffStore(legacy) = %v, %v", ok, err)
	}
	storePath := writeTemp(t, m, 8)
	if ok, err := SniffStore(storePath); err != nil || !ok {
		t.Fatalf("SniffStore(store) = %v, %v", ok, err)
	}
}

func TestOpenRejectsTruncatedPayload(t *testing.T) {
	m := testMatrix(100, 8, 4)
	path := writeTemp(t, m, 8)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.knor")
	if err := os.WriteFile(trunc, raw[:len(raw)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc, Options{}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := ReadDense(trunc); err == nil {
		t.Fatal("ReadDense accepted truncated payload")
	}
}

func TestHeaderValidation(t *testing.T) {
	good := encodeHeader(header{n: 10, d: 4, elem: 8, pageSize: PageSize})
	if _, err := decodeHeader(good); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func([]byte){
		"magic":   func(b []byte) { b[0] ^= 0xff },
		"version": func(b []byte) { b[4] = 99 },
		"elem":    func(b []byte) { b[24] = 3 },
	} {
		b := append([]byte(nil), good...)
		mut(b)
		if _, err := decodeHeader(b); err == nil {
			t.Fatalf("%s corruption accepted", name)
		}
	}
}

func TestRequestMergingCoalescesPages(t *testing.T) {
	// d=1024 float64 rows are 8192 bytes = 2+ pages; a cold row read
	// must arrive as ONE merged ReadAt, not one per page.
	m := testMatrix(16, 1024, 5)
	path := writeTemp(t, m, 8)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingAt{data: raw}
	f, err := OpenReaderAt(cr, int64(len(raw)), Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := cr.calls.Load() // header read
	r := f.Reader()
	if _, err := r.Row(3); err != nil {
		t.Fatal(err)
	}
	if got := cr.calls.Load() - base; got != 1 {
		t.Fatalf("cold 3-page row issued %d ReadAt calls, want 1 merged request", got)
	}
	// Cached re-read issues none.
	if _, err := r.Row(3); err != nil {
		t.Fatal(err)
	}
	if got := cr.calls.Load() - base; got != 1 {
		t.Fatalf("warm re-read issued extra ReadAt (%d total)", got)
	}
}

type countingAt struct {
	data  []byte
	calls atomic.Int64
}

func (c *countingAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls.Add(1)
	if off >= int64(len(c.data)) {
		return 0, os.ErrInvalid
	}
	n := copy(p, c.data[off:])
	if n < len(p) {
		return n, os.ErrInvalid
	}
	return n, nil
}

func TestTrafficCounters(t *testing.T) {
	m := testMatrix(200, 16, 6) // rowBytes 128, 32 rows/page
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := f.Reader()
	for i := 0; i < 10; i++ {
		if _, err := r.Row(i); err != nil {
			t.Fatal(err)
		}
	}
	req, read := f.Traffic()
	if req != 10*128 {
		t.Fatalf("requested %d, want %d", req, 10*128)
	}
	// Ten 128B rows live on one 4KB page: fragmentation means read >>
	// requested — the Figure 6 gap, now on a real file.
	if read < req || read != PageSize {
		t.Fatalf("read %d, want one page (%d) >= requested %d", read, PageSize, req)
	}

	// Untracked readers move only the device counter.
	u := f.Reader()
	u.Untracked = true
	if _, err := u.Row(199); err != nil {
		t.Fatal(err)
	}
	req2, read2 := f.Traffic()
	if req2 != req {
		t.Fatalf("untracked read bumped requested: %d -> %d", req, req2)
	}
	if read2 <= read {
		t.Fatal("untracked cold read did not bump device counter")
	}
}

func TestCacheBoundedAndEviction(t *testing.T) {
	m := testMatrix(4096, 64, 7) // rowBytes 512, payload 2MB = 512 pages
	path := writeTemp(t, m, 8)
	capBytes := 16 * PageSize
	f, err := Open(path, Options{CacheBytes: capBytes, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := f.Reader()
	for i := 0; i < m.Rows(); i++ {
		if _, err := r.Row(i); err != nil {
			t.Fatal(err)
		}
	}
	if peak := f.CachePeakPages(); peak > f.CacheCapPages() {
		t.Fatalf("peak %d pages exceeds capacity %d", peak, f.CacheCapPages())
	}
	// Evicted pages must still decode correctly on re-read.
	row, err := r.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range row {
		if v != m.At(0, j) {
			t.Fatalf("evicted row re-read wrong at col %d", j)
		}
	}
	hits, misses := f.CacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

// TestPageCacheHoldsBudget: the shards together hold every page of the
// byte budget, at least one page each, and differ by at most one page.
func TestPageCacheHoldsBudget(t *testing.T) {
	for _, c := range []struct{ capacityBytes, pageSize, shards, want int }{
		{6_400_000, PageSize, 8, 1562}, // d32's cache: 1562 pages, not 8×195
		{16 * PageSize, PageSize, 4, 16},
		{17*PageSize - 1, PageSize, 4, 16},
		{19 * PageSize, PageSize, 4, 19},
		{3 * PageSize, PageSize, 8, 8}, // one page per shard at least
		{0, PageSize, 3, 3},
		{5 * 512, 512, 0, 5}, // shards < 1 means one shard
		{7 * PageSize, PageSize, 7, 7},
	} {
		pc := newPageCache(c.capacityBytes, c.pageSize, c.shards)
		if got := pc.capPages(); got != c.want {
			t.Errorf("%d bytes of %d-byte pages over %d shards: %d pages, want %d",
				c.capacityBytes, c.pageSize, c.shards, got, c.want)
		}
		lo, hi := pc.shards[0].cap, pc.shards[0].cap
		for i := range pc.shards {
			lo, hi = min(lo, pc.shards[i].cap), max(hi, pc.shards[i].cap)
		}
		if lo < 1 || hi-lo > 1 {
			t.Errorf("%d bytes over %d shards: shard capacities span [%d, %d]", c.capacityBytes, c.shards, lo, hi)
		}
	}
}

func TestSingleflightNoDuplicateReads(t *testing.T) {
	m := testMatrix(1024, 32, 8) // payload 256KB = 64 pages
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := f.Reader()
			for i := 0; i < m.Rows(); i++ {
				row, err := r.Row(i)
				if err != nil {
					t.Error(err)
					return
				}
				if row[0] != m.At(i, 0) {
					t.Errorf("row %d corrupt", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// With a cache larger than the file, every page is read exactly
	// once no matter how many concurrent readers wanted it.
	_, read := f.Traffic()
	if want := uint64(m.Rows() * f.RowBytes()); read != want {
		t.Fatalf("device read %d bytes, want exactly the payload %d", read, want)
	}
}

// allRows is a Prefetch predicate that picks every row.
func allRows(int) bool { return true }

// TestPrefetchMergesPages: Prefetch submits, in order, the maximal runs
// of consecutive pages that the rows want picks touch, and offers want
// only the rows of its range inside the file. The 192-byte rows make
// some rows straddle a page end; the ranges run past both ends of the
// file, and some picks skip pages or are empty.
func TestPrefetchMergesPages(t *testing.T) {
	m := testMatrix(700, 24, 3)
	f, err := Open(writeTemp(t, m, 8), Options{CacheBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A pool without workers: submitted ranges stay on its queue.
	f.pf = &prefetcher{ch: make(chan pageRange, m.Rows())}
	defer func() { f.pf = nil }()
	n, rowBytes, ps := m.Rows(), f.RowBytes(), f.PageSize()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		lo := rng.Intn(n+20) - 10
		hi := lo + rng.Intn(n+20)
		density := rng.Float64()
		pick := make([]bool, n)
		touched := make([]bool, (n*rowBytes+ps-1)/ps)
		for i := max(lo, 0); i < min(hi, n); i++ {
			if pick[i] = rng.Float64() < density; pick[i] {
				for p := i * rowBytes / ps; p <= ((i+1)*rowBytes-1)/ps; p++ {
					touched[p] = true
				}
			}
		}
		var want []pageRange
		for p, in := range touched {
			if !in {
				continue
			}
			if k := len(want); k > 0 && want[k-1].p1 == int64(p-1) {
				want[k-1].p1 = int64(p)
			} else {
				want = append(want, pageRange{int64(p), int64(p)})
			}
		}
		f.Prefetch(lo, hi, func(i int) bool {
			if i < max(lo, 0) || i >= min(hi, n) {
				t.Fatalf("[%d, %d): want asked about row %d", lo, hi, i)
			}
			return pick[i]
		})
		var got []pageRange
		for len(f.pf.ch) > 0 {
			got = append(got, <-f.pf.ch)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("[%d, %d) at density %.2f: submitted %v, want %v", lo, hi, density, got, want)
		}
	}
}

func TestPrefetchWarmsCacheWithoutRequested(t *testing.T) {
	m := testMatrix(512, 64, 9)
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{CacheBytes: 1 << 20, PrefetchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Prefetch(0, m.Rows(), allRows)
	// Demand reads join or follow the prefetch; singleflight guarantees
	// the payload is read at most once regardless of the race.
	r := f.Reader()
	for i := 0; i < m.Rows(); i++ {
		row, err := r.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if row[5] != m.At(i, 5) {
			t.Fatalf("row %d corrupt under prefetch", i)
		}
	}
	req, read := f.Traffic()
	if want := uint64(m.Rows() * f.RowBytes()); req != want {
		t.Fatalf("requested %d, want %d", req, want)
	}
	if want := uint64(m.Rows() * f.RowBytes()); read != want {
		t.Fatalf("device read %d, want exactly one pass over the payload (%d)", read, want)
	}
}

func TestPayloadTailClamped(t *testing.T) {
	// 5 rows x 100 cols x 8B = 4000B payload: less than one page, so
	// the tail read must clamp, not fail.
	m := testMatrix(5, 100, 10)
	path := writeTemp(t, m, 8)
	f, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := f.Reader()
	row, err := r.Row(4)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range row {
		if v != m.At(4, j) {
			t.Fatalf("tail row mismatch at col %d", j)
		}
	}
	_, read := f.Traffic()
	if read != 4000 {
		t.Fatalf("read %d, want clamped payload 4000", read)
	}
}
