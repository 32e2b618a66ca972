package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed cumulative-style buckets
// (Prometheus semantics: bucket i counts observations <= bound i, with
// an implicit +Inf bucket). Bounds are fixed at construction so Observe
// is lock-free: a linear scan over a handful of bounds, then two atomic
// adds. Sum is kept in float64 bits behind a CAS.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds an unregistered histogram over the given upper
// bounds (sorted ascending; an unsorted slice is sorted in place). Use
// Registry.Histogram for a registered one.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// DefLatencyBuckets covers the serving path's dynamic range: 1µs
// in-process requests (a small batch answered without the HTTP edge)
// up to multi-second tail stalls.
func DefLatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6,
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
		250e-3, 500e-3, 1, 2.5,
	}
}

// DefSizeBuckets covers row/batch size distributions (1 .. 64k rows).
func DefSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
}

// Observe records one value. No-op while telemetry is disabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// First bucket whose bound >= v; the bounds list is short (tens),
	// so a linear scan beats binary search in practice and stays
	// branch-predictable for stable workloads.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding +Inf). Read-only.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket (non-cumulative)
// counts; the last entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
