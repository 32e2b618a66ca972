package store

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tune the I/O stack of an opened store file.
type Options struct {
	// CacheBytes sizes the page cache; 0 means 64MB.
	CacheBytes int
	// Shards is the page-cache shard count; 0 means 8.
	Shards int
	// PrefetchWorkers is the size of the asynchronous fetch pool that
	// overlaps page reads with compute; 0 disables prefetching
	// (Prefetch becomes a no-op and every read is demand-paged).
	PrefetchWorkers int
	// PrefetchQueue bounds the pending prefetch range queue; 0 means 256.
	// When the queue is full further hints are dropped, never blocked on.
	PrefetchQueue int
}

func (o Options) withDefaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.PrefetchQueue <= 0 {
		o.PrefetchQueue = 256
	}
	return o
}

// File is an open store-format matrix: rows are decoded on demand
// through the page cache, so the resident footprint is bounded by the
// cache capacity, never by n*d.
type File struct {
	r      io.ReaderAt
	closer io.Closer
	hdr    header
	cache  *pageCache
	pf     *prefetcher

	requested atomic.Uint64 // bytes the algorithm asked for (rows × rowBytes)
	devRead   atomic.Uint64 // bytes actually read from the backing file
}

// Open opens a store file for streaming reads.
func Open(path string, opts Options) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sf, err := OpenReaderAt(f, st.Size(), opts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sf.closer = f
	return sf, nil
}

// OpenReaderAt builds a File over any io.ReaderAt of the given total
// size (testing seam; Open is the file-path entry point).
func OpenReaderAt(r io.ReaderAt, size int64, opts Options) (*File, error) {
	hbuf := make([]byte, headerBytes)
	n, rerr := r.ReadAt(hbuf, 0)
	if n < 32 {
		return nil, fmt.Errorf("store: truncated header: %w", rerr)
	}
	// Decode from the fixed 32-byte prefix so a wrong-format file is
	// reported as ErrBadMagic even when shorter than the header page.
	h, err := decodeHeader(hbuf[:n])
	if err != nil {
		return nil, err
	}
	if n < headerBytes {
		return nil, fmt.Errorf("store: truncated header page (%d bytes)", n)
	}
	if want := int64(headerBytes) + h.payloadLen(); size < want {
		return nil, fmt.Errorf("store: truncated payload: have %d bytes, header declares %d", size, want)
	}
	opts = opts.withDefaults()
	f := &File{
		r:     r,
		hdr:   h,
		cache: newPageCache(opts.CacheBytes, h.pageSize, opts.Shards),
	}
	if opts.PrefetchWorkers > 0 {
		f.pf = newPrefetcher(f, opts.PrefetchWorkers, opts.PrefetchQueue)
	}
	return f, nil
}

// Rows returns the row count.
func (f *File) Rows() int { return f.hdr.n }

// Cols returns the column count.
func (f *File) Cols() int { return f.hdr.d }

// ElemBytes returns the on-disk element width (4 or 8).
func (f *File) ElemBytes() int { return f.hdr.elem }

// RowBytes returns the on-disk size of one row.
func (f *File) RowBytes() int { return f.hdr.rowBytes() }

// Traffic returns the cumulative requested (algorithm rows × rowBytes)
// and device-read (page-granularity ReadAt) byte counters — the same
// two quantities the simulated SAFS stack reports for Figures 6a/6b.
func (f *File) Traffic() (requested, read uint64) {
	return f.requested.Load(), f.devRead.Load()
}

// CacheStats returns page-cache hits (including joins of in-flight
// fetches) and misses (owned device fetches).
func (f *File) CacheStats() (hits, misses uint64) { return f.cache.stats() }

// CacheCapPages returns the page-cache capacity in pages.
func (f *File) CacheCapPages() int { return f.cache.capPages() }

// CachePeakPages returns the high-water resident page count — the
// never-materialise bound tests assert against.
func (f *File) CachePeakPages() int { return f.cache.peakPages() }

// CacheLenPages returns the currently resident page count.
func (f *File) CacheLenPages() int { return f.cache.lenPages() }

// PageSize returns the page size (the minimum read unit).
func (f *File) PageSize() int { return f.hdr.pageSize }

// Close stops the prefetch pool and closes the backing file.
func (f *File) Close() error {
	if f.pf != nil {
		f.pf.stop()
	}
	// This file's resident pages leave the process-wide gauge with it.
	telResidentPages.Add(-float64(f.cache.lenPages()))
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// maxRunPages caps one device read. A merged run of missing pages is
// read through its caller's scratch buffer in pieces of at most this
// many pages, so one fetch holds at most this many page buffers in
// flight and a scratch buffer never outgrows 64 KB.
const maxRunPages = 16

// fetchScratch is one caller's reusable fetch state (a Reader's or a
// prefetch worker's): the run buffer and the pages it fetches or waits
// on.
type fetchScratch struct {
	run   []byte
	owned []*page
	joins []*page
}

// ensure makes pages [p0, p1] resident, reading missing runs from the
// backing file with adjacent pages merged into single ReadAt calls of
// at most maxRunPages pages. A demand read (out non-nil, one slot per
// page) receives every page pinned, out[j] = page p0+j, after waiting
// for pages other readers are fetching; the caller releases them. A
// prefetch (out nil) pins nothing, waits for no page in flight and
// stays out of the hit and miss counts; it first touches every
// resident page of the range, since its fetches come in pieces.
func (f *File) ensure(p0, p1 int64, out []*page, fs *fetchScratch) error {
	demand := out != nil
	if !demand {
		for p := p0; p <= p1; p++ {
			f.cache.touch(p)
		}
	}
	var firstErr error
	for c0 := p0; c0 <= p1; c0 += maxRunPages {
		fs.owned = fs.owned[:0]
		for p := c0; p <= p1 && p < c0+maxRunPages; p++ {
			pg, how := f.cache.acquire(p, demand)
			switch how {
			case pageOwned:
				fs.owned = append(fs.owned, pg)
			case pageJoined:
				fs.joins = append(fs.joins, pg)
			}
			if demand {
				out[p-p0] = pg
			}
		}
		// One ReadAt per run of consecutive owned pages.
		for i := 0; i < len(fs.owned); {
			j := i + 1
			for j < len(fs.owned) && fs.owned[j].id == fs.owned[j-1].id+1 {
				j++
			}
			if err := f.readRun(fs.owned[i:j], &fs.run); err != nil {
				for _, pg := range fs.owned[i:j] {
					f.cache.fail(pg, err, demand)
					if demand {
						out[pg.id-p0] = nil
					}
				}
				if firstErr == nil {
					firstErr = err
				}
			}
			i = j
		}
	}
	for _, pg := range fs.joins {
		pg.done.Wait()
		if pg.err != nil && firstErr == nil {
			firstErr = pg.err
		}
	}
	fs.joins = fs.joins[:0]
	if firstErr != nil && demand {
		for j, pg := range out {
			if pg != nil {
				f.cache.release(pg)
				out[j] = nil
			}
		}
	}
	return firstErr
}

// readRun reads the owned pages of one run (consecutive, at most
// maxRunPages) in one request through the scratch buffer, clamped to
// the payload tail, copies each page into its buffer and publishes it.
func (f *File) readRun(run []*page, scratch *[]byte) error {
	ps := int64(f.hdr.pageSize)
	start := run[0].id * ps
	want := int64(len(run)) * ps
	if rest := f.hdr.payloadLen() - start; want > rest {
		want = rest
	}
	if want <= 0 {
		return fmt.Errorf("store: page %d beyond payload", run[0].id)
	}
	if int64(cap(*scratch)) < want {
		*scratch = make([]byte, want)
	}
	buf := (*scratch)[:want]
	n, err := f.r.ReadAt(buf, headerBytes+start)
	if int64(n) != want {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("store: short read at page %d: %w", run[0].id, err)
	}
	f.devRead.Add(uint64(want))
	telMergedReads.Inc()
	telRunPages.Observe(float64(len(run)))
	telDeviceBytes.Add(uint64(want))
	for k, pg := range run {
		lo := int64(k) * ps
		pg.data = append(pg.data[:0], buf[lo:min(lo+ps, want)]...)
		f.cache.publish(pg)
	}
	return nil
}

// Reader is a per-worker row cursor. It keeps the pages of its last
// row pinned, so the consecutive rows of a page cost one cache lookup
// between them; Release unpins them. The slice returned by Row is
// valid until the next Row call on the same Reader; Readers are not
// safe for concurrent use, but any number may read one File at once.
type Reader struct {
	f *File
	// Untracked excludes this reader's fetches from the requested-bytes
	// counter (cache refills, SSE scans — reads the algorithm would not
	// issue on the simulated backend). Device reads still count.
	Untracked bool
	buf       []float64
	held      []*page // the last row's pages, pinned; held[0] is page hp0
	hp0       int64
	fs        fetchScratch
}

// Reader returns a new row cursor.
func (f *File) Reader() *Reader {
	return &Reader{f: f, buf: make([]float64, f.hdr.d)}
}

// Row decodes row i through the page cache. Every row counts its
// requested bytes and one page hit or miss per page it spans, whether
// its pages were still held from the row before or not.
func (r *Reader) Row(i int) ([]float64, error) {
	f := r.f
	if i < 0 || i >= f.hdr.n {
		return nil, fmt.Errorf("store: row %d out of range [0,%d)", i, f.hdr.n)
	}
	ps := int64(f.hdr.pageSize)
	rowBytes := int64(f.hdr.rowBytes())
	off := int64(i) * rowBytes
	p0 := off / ps
	p1 := (off + rowBytes - 1) / ps
	np := int(p1 - p0 + 1)
	if len(r.held) > 0 && p0 >= r.hp0 && p1 < r.hp0+int64(len(r.held)) {
		f.cache.hit(np)
	} else {
		r.Release()
		if cap(r.held) < np {
			r.held = make([]*page, np)
		}
		r.held = r.held[:np]
		if err := f.ensure(p0, p1, r.held, &r.fs); err != nil {
			r.held = r.held[:0]
			return nil, err
		}
		r.hp0 = p0
	}
	pages := r.held[p0-r.hp0:]
	if np == 1 {
		rel := off - p0*ps
		decodeRow(pages[0].data[rel:rel+rowBytes], f.hdr.elem, r.buf)
	} else {
		// Row spans pages; elements never do (pageSize % elem == 0).
		elem := int64(f.hdr.elem)
		for j := 0; j < f.hdr.d; j++ {
			rel := off + int64(j)*elem - p0*ps
			pg := pages[rel/ps].data
			decodeRow(pg[rel%ps:rel%ps+elem], f.hdr.elem, r.buf[j:j+1])
		}
	}
	if !r.Untracked {
		f.requested.Add(uint64(rowBytes))
		telRequestedBytes.Add(uint64(rowBytes))
	}
	return r.buf, nil
}

// Release unpins the pages the Reader holds, so that the cache can
// recycle them once they are evicted. The Reader stays usable.
func (r *Reader) Release() {
	for j, pg := range r.held {
		r.f.cache.release(pg)
		r.held[j] = nil
	}
	r.held = r.held[:0]
}

// --- prefetch pipeline -------------------------------------------------

type pageRange struct{ p0, p1 int64 }

// prefetcher is the async fetch pool: worker goroutines pull merged
// page ranges off a bounded queue and make them resident, overlapping
// device reads with the caller's compute. The singleflight layer in
// the cache guarantees a demand read arriving mid-prefetch joins the
// in-flight fetch instead of duplicating it.
type prefetcher struct {
	ch   chan pageRange
	quit chan struct{}
	wg   sync.WaitGroup
}

func newPrefetcher(f *File, workers, queue int) *prefetcher {
	p := &prefetcher{ch: make(chan pageRange, queue), quit: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			var fs fetchScratch
			for {
				select {
				case <-p.quit:
					return
				case r := <-p.ch:
					// Errors surface on the demand path; a failed
					// prefetch is only a lost overlap.
					_ = f.ensure(r.p0, r.p1, nil, &fs)
				}
			}
		}()
	}
	return p
}

func (p *prefetcher) submit(r pageRange) {
	select {
	case p.ch <- r:
		telPrefetchIssued.Inc()
	default: // queue full: drop the hint rather than stall compute
		telPrefetchDropped.Inc()
	}
}

func (p *prefetcher) stop() {
	close(p.quit)
	p.wg.Wait()
}

// Prefetch hints that the rows of [lo, hi) for which want reports true
// are about to be read. Their page spans are merged, in row order, into
// contiguous ranges handed to the fetch pool as each range ends, so no
// list of the rows is kept. Rows outside the file are not offered to
// want, and without a pool this is a no-op that calls want for none.
// Safe for concurrent use.
//
// Prefetch then yields the processor, so that a pool worker it woke
// starts the fetch at once even when every processor is busy
// computing. The scheduler would otherwise run the worker only when the
// caller blocks or is preempted, after up to 10 ms, by which time a
// compute loop has read past the hinted rows and the late fetch reads
// pages it already read and evicted.
func (f *File) Prefetch(lo, hi int, want func(row int) bool) {
	if f.pf == nil {
		return
	}
	ps := int64(f.hdr.pageSize)
	rowBytes := int64(f.hdr.rowBytes())
	cur := pageRange{p0: -1}
	for i := max(lo, 0); i < min(hi, f.hdr.n); i++ {
		if !want(i) {
			continue
		}
		off := int64(i) * rowBytes
		p0 := off / ps
		p1 := (off + rowBytes - 1) / ps
		if cur.p0 >= 0 && p0 <= cur.p1+1 {
			if p1 > cur.p1 {
				cur.p1 = p1
			}
			continue
		}
		if cur.p0 >= 0 {
			f.pf.submit(cur)
		}
		cur = pageRange{p0: p0, p1: p1}
	}
	if cur.p0 < 0 {
		return
	}
	f.pf.submit(cur)
	runtime.Gosched()
}
