package store

import (
	"sync"
	"sync/atomic"
)

// pageCache is a sharded LRU cache of payload pages with per-page
// singleflight: concurrent readers (compute workers, the prefetch
// pool) of a missing page elect one owner to fetch it; everyone else
// waits on the owner's flight instead of issuing a duplicate ReadAt.
// Sharding keeps lock hold times short under many workers; the
// flight/insert protocol never holds a shard lock across device I/O.
//
// Page buffers are a fixed budget, and pages in flight count against
// it. A demand reader pins every page it uses, the in-flight pages it
// joins included, and releases it when it moves on. A miss in a shard
// whose resident and in-flight pages fill its capacity first evicts
// the LRU tail, pinned or not, and reuses its buffer unless a reader
// still pins it; a pinned victim's buffer goes on the shard's free list
// at its last release, for a later miss. So a shard's buffers exceed
// its capacity only by evicted pages that readers still pin, and once
// the cache is full a streaming pass allocates no page memory.
//
// A demand hit moves a page to the front of the LRU, except the first
// hit on a page the prefetch pool fetched. Read-ahead inserts pages in
// the order the reader will use them; if each use moved its page to the
// front, pages already read would be more recent than pages prefetched
// before them and still to be read, and the LRU would evict the latter
// first. A prefetch moves the resident pages of its whole range to the
// front (touch) before it fetches any, so that its fetches evict pages
// outside the range, not the range's own pages.
type pageCache struct {
	pageSize     int
	shards       []cacheShard
	hits, misses atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	cap      int             // resident and in-flight pages
	pages    map[int64]*page // resident pages and pages in flight
	lru      page            // list sentinel: lru.next is the most recent page
	n        int             // resident pages
	inflight int             // pages being fetched
	peak     int             // high-water resident pages
	free     []*page         // recycled buffers, at most cap
	// Page buffers allocated, and pages evicted while a reader pinned
	// them: the first exceeds cap by at most the second.
	allocs, pinnedEvictions int
}

// page is one page buffer and, while its fetch is in flight, the
// flight its joiners wait on. The shard lock guards every field but
// data, err and done. Only the fetching owner writes data, before done
// is released; a pinned page is never recycled, so a reader holding a
// pin may read data without the lock.
type page struct {
	id         int64
	data       []byte
	pins       int32 // demand readers holding the page
	fetching   bool  // an owner is reading it; done not yet released
	resident   bool  // in the LRU
	prefetched bool  // fetched by the prefetch pool, no demand read used yet
	prev, next *page
	done       sync.WaitGroup // released when the fetch completes
	err        error          // a failed fetch's error, for its joiners
}

// How acquire resolved a page.
const (
	pageHit    = iota // resident, or in flight for a prefetch probe
	pageJoined        // in flight: a demand reader waits on done
	pageOwned         // missing: the caller fetches it, then publishes or fails it
)

func newPageCache(capacityBytes, pageSize, shards int) *pageCache {
	if shards < 1 {
		shards = 1
	}
	capPages := capacityBytes / pageSize
	if capPages < shards {
		capPages = shards // at least one page per shard
	}
	// The first capPages % shards shards take one page more, so the
	// shards hold the whole budget.
	c := &pageCache{pageSize: pageSize, shards: make([]cacheShard, shards)}
	per, extra := capPages/shards, capPages%shards
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		if i < extra {
			s.cap++
		}
		s.pages = make(map[int64]*page)
		s.lru.next, s.lru.prev = &s.lru, &s.lru
	}
	return c
}

func (c *pageCache) shard(p int64) *cacheShard {
	return &c.shards[int(uint64(p)%uint64(len(c.shards)))]
}

// acquire resolves page p. A demand reader gets the page pinned on a
// hit or a join and counts a hit, or owns the fetch, pinned too, and
// counts a miss. A prefetch probe pins, counts and moves nothing and
// gets a page only when it owns the fetch.
func (c *pageCache) acquire(p int64, demand bool) (*page, int) {
	s := c.shard(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if pg := s.pages[p]; pg != nil {
		if !demand {
			return nil, pageHit
		}
		pg.pins++
		// Joining a fetch in flight costs no device I/O, so it counts as
		// a hit (the overlap the prefetch pipeline exists to create).
		c.hit(1)
		if pg.prefetched {
			telPrefetchUsed.Inc()
			pg.prefetched = false
		} else if pg.resident {
			s.unlink(pg)
			s.pushFront(pg)
		}
		if pg.fetching {
			return pg, pageJoined
		}
		return pg, pageHit
	}
	pg := s.take(c.pageSize)
	s.inflight++
	pg.id = p
	pg.fetching = true
	pg.prefetched = !demand
	pg.done.Add(1)
	if demand {
		pg.pins = 1
		c.misses.Add(1)
		telPageMisses.Inc()
	}
	s.pages[p] = pg
	return pg, pageOwned
}

// touch moves page p to the front of the LRU if it is resident.
func (c *pageCache) touch(p int64) {
	s := c.shard(p)
	s.mu.Lock()
	if pg := s.pages[p]; pg != nil && pg.resident {
		s.unlink(pg)
		s.pushFront(pg)
	}
	s.mu.Unlock()
}

// hit counts n page hits, for pages a reader still holds from an
// earlier row as for pages acquire finds.
func (c *pageCache) hit(n int) {
	c.hits.Add(uint64(n))
	telPageHits.Add(uint64(n))
}

// publish completes an owned fetch whose data is in place: the page
// enters the LRU, the least recent pages beyond the capacity leave it
// (only when fetches without a victim overfilled the shard), and its
// joiners wake.
func (c *pageCache) publish(pg *page) {
	s := c.shard(pg.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	pg.fetching = false
	pg.resident = true
	s.pushFront(pg)
	s.n++
	s.inflight--
	telResidentPages.Inc()
	for s.n > s.cap {
		if v := s.evict(); v.pins == 0 {
			s.recycle(v)
		}
	}
	if s.n > s.peak {
		s.peak = s.n
	}
	// Released under the lock, so that the page cannot be recycled and
	// fetched again before its flight is complete.
	pg.done.Done()
}

// fail completes an owned fetch with an error: the page is not cached,
// its joiners wake to err, and the owner's own pin (demand) is dropped.
func (c *pageCache) fail(pg *page, err error, demand bool) {
	s := c.shard(pg.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pages, pg.id)
	s.inflight--
	pg.fetching = false
	pg.err = err
	pg.done.Done()
	if demand {
		pg.pins--
	}
	if pg.pins == 0 {
		s.recycle(pg)
	}
}

// release drops one demand reader's pin. The last pin of a page that
// has left the cache (evicted, or its fetch failed) recycles it.
func (c *pageCache) release(pg *page) {
	s := c.shard(pg.id)
	s.mu.Lock()
	pg.pins--
	if pg.pins == 0 && !pg.resident && !pg.fetching {
		s.recycle(pg)
	}
	s.mu.Unlock()
}

// take returns a page buffer for a miss. When resident and in-flight
// pages fill the shard, it first evicts the LRU tail, whose buffer it
// reuses unless a reader still pins it; otherwise a recycled buffer if
// the shard has one, else a new one.
func (s *cacheShard) take(pageSize int) *page {
	if s.n > 0 && s.n+s.inflight >= s.cap {
		if v := s.evict(); v.pins == 0 {
			s.recycle(v)
		}
	}
	if n := len(s.free); n > 0 {
		pg := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return pg
	}
	s.allocs++
	return &page{data: make([]byte, 0, pageSize)}
}

// evict removes the least recent resident page from the cache.
func (s *cacheShard) evict() *page {
	v := s.lru.prev
	s.unlink(v)
	delete(s.pages, v.id)
	v.resident = false
	s.n--
	if v.pins > 0 {
		s.pinnedEvictions++
	}
	telPageEvictions.Inc()
	telResidentPages.Dec()
	return v
}

// recycle puts an unpinned page that left the cache on the free list.
// The list holds at most a shard's capacity; a page beyond it is left
// to the garbage collector.
func (s *cacheShard) recycle(pg *page) {
	if len(s.free) >= s.cap {
		return
	}
	pg.err = nil
	pg.prefetched = false
	s.free = append(s.free, pg)
}

func (s *cacheShard) pushFront(pg *page) {
	pg.prev, pg.next = &s.lru, s.lru.next
	s.lru.next.prev = pg
	s.lru.next = pg
}

func (s *cacheShard) unlink(pg *page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

func (c *pageCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// capPages returns the total page capacity across shards.
func (c *pageCache) capPages() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].cap
	}
	return total
}

// peakPages returns the summed high-water resident page count — the
// bound the never-materialise guarantee is asserted against.
func (c *pageCache) peakPages() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.peak
		s.mu.Unlock()
	}
	return total
}

func (c *pageCache) lenPages() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.n
		s.mu.Unlock()
	}
	return total
}
