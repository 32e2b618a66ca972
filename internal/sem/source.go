package sem

import (
	"knor/internal/matrix"
	"knor/internal/ssd"
	"knor/internal/store"
)

// RowSource is the storage backend a knors engine streams row data
// from. Two implementations exist: the simulated SSD array (package
// ssd, used for the paper-figure reproductions) and a real on-disk
// store file (package store, used when the dataset genuinely does not
// fit in memory). Both report the same BytesWanted/BytesRead counter
// semantics, so Figure 6 is measurable on either.
type RowSource interface {
	Rows() int
	Cols() int
	// RowBytes is the stored size of one row; it sizes the file
	// backend's read-ahead windows.
	RowBytes() int
	// Cursor returns an independent row reader for one worker
	// goroutine. The slice returned by Row is valid until the next Row
	// call on the same cursor.
	Cursor() RowCursor
	// UntrackedCursor is Cursor, but its fetches stay out of the
	// requested-bytes counter (row-cache refills, SSE scans — reads
	// the simulated algorithm would not issue).
	UntrackedCursor() RowCursor
	// Prefetch hints that the rows in [lo, hi) for which want reports
	// true are about to be read on the demand path. Real backends
	// overlap the page fetches with compute; the simulated backend
	// ignores it (RAM is the device) and does not call want.
	Prefetch(lo, hi int, want func(row int) bool)
	// ReadRows settles one task's row-cache misses starting at
	// simulated time start and returns the I/O completion time. The
	// simulated backend charges its device queues and counters here;
	// real backends already performed (and counted) the I/O during
	// compute and return start unchanged.
	ReadRows(start float64, rows []int32) float64
	// Traffic returns cumulative requested and device-read bytes.
	Traffic() (requested, read uint64)
	// Real reports whether I/O happens for real (wall-clock timing,
	// data-bearing row cache) rather than against the simulator.
	Real() bool
}

// RowCursor yields rows for one worker. Not safe for concurrent use.
type RowCursor interface {
	Row(i int) ([]float64, error)
	// Release lets go of what the cursor holds between rows (the file
	// backend's pinned pages). The cursor stays usable.
	Release()
}

// --- simulated backend -------------------------------------------------

// simSource fronts an in-memory matrix with the simulated SAFS stack:
// row access is free (the data is resident), and I/O is charged
// deterministically during the replay pass.
type simSource struct {
	data    *matrix.Dense
	safs    *ssd.SAFS
	scratch []int // replay is single-threaded; reused across tasks
}

func (s *simSource) Rows() int     { return s.data.Rows() }
func (s *simSource) Cols() int     { return s.data.Cols() }
func (s *simSource) RowBytes() int { return s.data.Cols() * 8 }

func (s *simSource) Cursor() RowCursor          { return memCursor{s.data} }
func (s *simSource) UntrackedCursor() RowCursor { return memCursor{s.data} }

func (s *simSource) Prefetch(int, int, func(int) bool) {}

func (s *simSource) ReadRows(start float64, rows []int32) float64 {
	s.scratch = s.scratch[:0]
	for _, r := range rows {
		s.scratch = append(s.scratch, int(r))
	}
	end, _ := s.safs.ReadRows(start, s.scratch)
	return end
}

func (s *simSource) Traffic() (uint64, uint64) { return s.safs.Traffic() }
func (s *simSource) Real() bool                { return false }

type memCursor struct{ d *matrix.Dense }

func (c memCursor) Row(i int) ([]float64, error) { return c.d.Row(i), nil }
func (c memCursor) Release()                     {}

// --- real file backend -------------------------------------------------

// fileSource streams rows from an on-disk store file through its page
// cache and prefetch pool.
type fileSource struct{ f *store.File }

func (s fileSource) Rows() int     { return s.f.Rows() }
func (s fileSource) Cols() int     { return s.f.Cols() }
func (s fileSource) RowBytes() int { return s.f.RowBytes() }

func (s fileSource) Cursor() RowCursor { return s.f.Reader() }

func (s fileSource) UntrackedCursor() RowCursor {
	r := s.f.Reader()
	r.Untracked = true
	return r
}

func (s fileSource) Prefetch(lo, hi int, want func(int) bool) { s.f.Prefetch(lo, hi, want) }

func (s fileSource) ReadRows(start float64, rows []int32) float64 { return start }

func (s fileSource) Traffic() (uint64, uint64) { return s.f.Traffic() }
func (s fileSource) Real() bool                { return true }

// --- cursor adapters ---------------------------------------------------

// normCursor normalises each fetched row to unit norm — the spherical
// variant on a streaming backend, where the source rows cannot be
// normalised in place. Applies exactly matrix.NormalizeRows's
// operation per row, so results match the in-memory clone path bit for
// bit.
type normCursor struct {
	inner RowCursor
	buf   []float64
}

func (c *normCursor) Row(i int) ([]float64, error) {
	row, err := c.inner.Row(i)
	if err != nil {
		return nil, err
	}
	copy(c.buf, row)
	if n := matrix.Norm(c.buf); n > 0 {
		matrix.Scale(c.buf, 1/n)
	}
	return c.buf, nil
}

func (c *normCursor) Release() { c.inner.Release() }

// cursorRows adapts a RowCursor to kmeans.RowData for streaming
// centroid initialisation. Cursor errors are latched (initialisation
// helpers have no error path) and surfaced by the caller afterwards; a
// failed fetch yields a zero row so initialisation still terminates.
type cursorRows struct {
	cur  RowCursor
	n, d int
	zero []float64
	err  error
}

func (c *cursorRows) Rows() int { return c.n }
func (c *cursorRows) Cols() int { return c.d }

func (c *cursorRows) Row(i int) []float64 {
	row, err := c.cur.Row(i)
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		if c.zero == nil {
			c.zero = make([]float64, c.d)
		}
		return c.zero
	}
	return row
}
