// Package sem implements knors, the semi-external-memory k-means
// module: O(n) algorithm state in memory, O(nd) row data streamed from
// a simulated SSD array (package ssd), a partitioned lazily-updated row
// cache (Section 6.2.2), asynchronous I/O overlap, and lightweight
// checkpointing.
package sem

import (
	"iter"
	"slices"
	"sync/atomic"
)

// DefaultICache is the paper's row-cache update interval (I_cache = 5
// for all experiments in the evaluation).
const DefaultICache = 5

// RowCache is the partitioned, lazily-updated row cache of Figure 3.
// It pins *rows* (not pages) in memory. The cache refreshes at
// iteration I_cache and then at exponentially growing intervals
// (2·I_cache, 4·I_cache, ...): row activation patterns stabilise as
// k-means converges, so a static cache achieves near-100% hit rates
// (Figure 7) while costing almost no maintenance.
//
// Partitions mirror the matrix partitions (generally one per thread);
// each keeps its pinned row ids ascending and finds a row by binary
// search. The cache changes only between compute passes (BeginRefresh
// before a refresh iteration's pass, the refill after it), so Get, Peek
// and Wants take no lock and may run from any number of goroutines
// while nothing offers or refreshes.
//
// On the simulated backend entries carry no payload (the matrix is
// resident; pinning only elides simulated I/O). On the real file
// backend entries pin the row *data* via OfferData/Get, each
// partition's rows in one arena of rowBytes/8 floats per row, so the
// capacity bound is a genuine memory budget.
type RowCache struct {
	partitions   []rcPartition
	rowsPerPart  int
	capacityRows int
	rowLen       int // payload floats per row

	icache      int
	nextRefresh int
	interval    int
	refreshes   int

	// hits is atomic: the compute pass counts cache hits from every
	// worker concurrently on the real backend's hot path.
	hits atomic.Uint64
}

type rcPartition struct {
	rows []int32   // pinned row ids, ascending
	data []float64 // rows[i]'s payload at [i*rowLen, (i+1)*rowLen); empty without payloads
	cap  int
}

// NewRowCache builds a cache over n rows of rowBytes each, split into
// nParts partitions, holding at most capacityBytes of row data. icache
// <= 0 uses DefaultICache.
func NewRowCache(n, rowBytes, nParts, capacityBytes, icache int) *RowCache {
	if nParts <= 0 {
		nParts = 1
	}
	if icache <= 0 {
		icache = DefaultICache
	}
	capRows := capacityBytes / rowBytes
	if capRows < 1 {
		capRows = 1
	}
	perPart := capRows / nParts
	if perPart < 1 {
		perPart = 1
	}
	c := &RowCache{
		partitions:   make([]rcPartition, nParts),
		rowsPerPart:  (n + nParts - 1) / nParts,
		capacityRows: capRows,
		rowLen:       rowBytes / 8,
		icache:       icache,
		nextRefresh:  icache,
		interval:     icache,
	}
	for i := range c.partitions {
		c.partitions[i].cap = perPart
	}
	return c
}

// CapacityRows returns the total row capacity.
func (c *RowCache) CapacityRows() int { return c.capacityRows }

// Hits returns cumulative cache hits.
func (c *RowCache) Hits() uint64 { return c.hits.Load() }

// Refreshes returns how many refresh cycles have run.
func (c *RowCache) Refreshes() int { return c.refreshes }

// Len returns the resident row count.
func (c *RowCache) Len() int {
	total := 0
	for i := range c.partitions {
		total += len(c.partitions[i].rows)
	}
	return total
}

func (c *RowCache) partIndex(row int32) int {
	return min(int(row)/c.rowsPerPart, len(c.partitions)-1)
}

// find returns row's partition and its slot there, if pinned.
func (c *RowCache) find(row int32) (*rcPartition, int, bool) {
	p := &c.partitions[c.partIndex(row)]
	i, ok := slices.BinarySearch(p.rows, row)
	return p, i, ok
}

// Contains reports whether a row is pinned, counting a hit if so.
func (c *RowCache) Contains(row int32) bool {
	_, ok := c.Get(row)
	return ok
}

// Get returns a pinned row's payload (nil for payload-free entries on
// the simulated backend), counting a hit when present. The returned
// slice is owned by the cache and must not be mutated; its capacity
// equals its length, and it stays valid until the next BeginRefresh.
func (c *RowCache) Get(row int32) ([]float64, bool) {
	p, i, ok := c.find(row)
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	if len(p.data) == 0 {
		return nil, true
	}
	lo, hi := i*c.rowLen, (i+1)*c.rowLen
	return p.data[lo:hi:hi], true
}

// Peek reports residency without touching the hit statistics (the
// prefetch planner's probe).
func (c *RowCache) Peek(row int32) bool {
	_, _, ok := c.find(row)
	return ok
}

// Wants reports whether an Offer for this row would pin it: not
// already present and its partition has room. Lets the file backend
// skip fetching payloads the cache would reject.
func (c *RowCache) Wants(row int32) bool {
	p, _, present := c.find(row)
	return !present && len(p.rows) < p.cap
}

// IsRefreshIteration reports whether the cache repopulates during the
// given iteration (lazy doubling schedule).
func (c *RowCache) IsRefreshIteration(iter int) bool {
	return iter == c.nextRefresh
}

// BeginRefresh flushes all partitions at the start of a refresh
// iteration and schedules the next refresh at double the interval.
// The partitions keep their arenas for the refill.
func (c *RowCache) BeginRefresh() {
	for i := range c.partitions {
		p := &c.partitions[i]
		p.rows, p.data = p.rows[:0], p.data[:0]
	}
	c.interval *= 2
	c.nextRefresh += c.interval
	c.refreshes++
}

// Offer pins a row during a refresh iteration if its partition has
// room, without payload (simulated backend). Outside refresh
// iterations the engine does not call Offer — the cache stays static.
func (c *RowCache) Offer(row int32) { c.OfferData(row, nil) }

// OfferData pins a row with its payload (copied; rowBytes/8 values) if
// its partition has room — the file backend's refill, where a later Get
// must serve the actual bytes. Within a refresh, rows reach a partition
// in ascending order (the refill visits tasks in index order) and
// either all with a payload or all without; the cache relies on both.
// Offering a pinned row again does nothing.
func (c *RowCache) OfferData(row int32, vals []float64) {
	p := &c.partitions[c.partIndex(row)]
	n := len(p.rows)
	if n > 0 && p.rows[n-1] >= row {
		if p.rows[n-1] > row {
			panic("sem: RowCache rows offered out of order")
		}
		return // pinned already
	}
	if n < p.cap {
		p.rows = append(p.rows, row)
		p.data = append(p.data, vals...)
	}
}

// refill runs after BeginRefresh. It pins the rows that rows yields in
// ascending order, each with the payload fetch returns for it (nil
// fetch: no payload, the simulated backend). Its first walk sizes each
// partition's ids and arena for the rows it will pin, the ones offered
// up to its cap, and reuses them when they are large enough already;
// its second walk pins.
func (c *RowCache) refill(rows iter.Seq[int32], fetch func(row int32) ([]float64, error)) error {
	want := make([]int, len(c.partitions))
	for r := range rows {
		want[c.partIndex(r)]++
	}
	for i := range c.partitions {
		p := &c.partitions[i]
		n := min(want[i], p.cap)
		if cap(p.rows) < n {
			p.rows = make([]int32, 0, n)
		}
		if fetch != nil && cap(p.data) < n*c.rowLen {
			p.data = make([]float64, 0, n*c.rowLen)
		}
	}
	for r := range rows {
		if !c.Wants(r) {
			continue
		}
		var vals []float64
		if fetch != nil {
			var err error
			if vals, err = fetch(r); err != nil {
				return err
			}
		}
		c.OfferData(r, vals)
	}
	return nil
}

// MemoryBytes reports the cache's row-data footprint for the given row
// size (resident rows × rowBytes).
func (c *RowCache) MemoryBytes(rowBytes int) uint64 {
	return uint64(c.Len()) * uint64(rowBytes)
}
