package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"knor/internal/blas"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/metrics"
	"knor/internal/telemetry"
)

// ErrOverloaded is wrapped by assignment errors rejected for quota:
// the named model already has ModelQuota in-flight requests. Callers
// should back off and retry (the HTTP layer maps it to 429 with a
// Retry-After hint).
var ErrOverloaded = errors.New("serve: model overloaded")

// Assignment is the answer for one query row.
type Assignment struct {
	Cluster int32   // nearest centroid index
	SqDist  float64 // squared distance to it
	Version int     // model version that answered
}

// BatcherOptions tune the assignment path.
type BatcherOptions struct {
	// MaxBatch flushes as soon as this many rows are queued (default
	// 1024).
	MaxBatch int
	// MaxWait holds each batch open this long for more rows unless
	// MaxBatch is reached first. 0 (the default) does not linger: the
	// flusher drains the queue as soon as it is free, so requests that
	// arrive during a flush coalesce into the next one and batches grow
	// with offered load without a timer on the idle path.
	MaxWait time.Duration
	// Threads parallelises the blocked GEMM (default 1).
	Threads int
	// ModelQuota bounds in-flight requests per model (queued or being
	// answered); further AssignBatch calls fail fast with an error
	// wrapping ErrOverloaded instead of growing the queue without
	// bound. 0 means unlimited.
	ModelQuota int
	// RawSqDist reports raw squared distances from the GEMM identity,
	// skipping the clamp of small negative cancellation noise to zero.
	// The sharded fan-out path needs raw values so cross-shard min and
	// tie-break ordering match the single-node scan exactly; the
	// combiner applies the clamp once, after the global min.
	RawSqDist bool
	// Internal marks this batcher as a per-shard stage behind a fan-out
	// edge: it reports the flush/GEMM/queue telemetry (its flushes are
	// real GEMMs) but not the edge instruments (requests, rows,
	// rejections, request latency, in-flight), which the edge owns — so
	// a fanned-out request is never double-counted on /metrics.
	Internal bool
	// Tracer samples request traces at this batcher's edge (nil = no
	// tracing). Ignored when Internal is set: a shard batcher records
	// onto traces injected by the edge instead of sampling its own.
	Tracer *telemetry.Tracer
	// Quantize selects the approximate scan for the float32 assign path:
	// "int8" scans all k centroids with the int8×int8→int32 kernel and
	// re-ranks the margin-surviving candidates exactly, keeping answers
	// bit-identical to the exact path (see quant.go). "" (default) runs
	// the exact GEMM scan. Only the float32 instantiation honours it;
	// float64 batchers ignore the option.
	Quantize string
	// QuantRerank bounds the exact re-rank's candidate set per query row
	// (default 32); rows whose quantization margin leaves more candidates
	// fall back to a full exact scan, counted in
	// knor_serve_quant_rerank_fallbacks_total.
	QuantRerank int
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.QuantRerank <= 0 {
		o.QuantRerank = 32
	}
	return o
}

// BatcherStats summarises the assignment path's behaviour.
type BatcherStats struct {
	Requests uint64  // Assign/AssignBatch calls answered
	Rows     uint64  // query rows answered
	Flushes  uint64  // blocked distance computations performed
	Rejected uint64  // requests refused by the per-model quota
	Queued   int     // rows waiting for the next flush right now
	P50      float64 // request latency quantiles, seconds
	P95      float64
	P99      float64
	Mean     float64
}

// pendingReq is one waiter: a set of rows against one model, answered
// together.
type pendingReq[T blas.Float] struct {
	model string
	rows  *matrix.Mat[T]
	out   chan batchAnswer
	start time.Time
	trace *telemetry.Trace // nil unless this request was sampled
}

type batchAnswer struct {
	assigns []Assignment
	err     error
	done    time.Time // when the answer was posted (traced requests only)
}

// BatcherOf coalesces concurrent assignment requests into one blocked
// ‖v‖²+‖c‖²−2·V·Cᵀ distance computation per flush. Callers block only
// for their own answer; a background flusher drains the queue as soon
// as it is free, taking every request that arrived during the previous
// flush together (with MaxWait > 0 it first holds each batch open until
// MaxBatch rows accumulate or MaxWait elapses after the first arrival).
// All rows of a flush that target the same model are answered by a
// single model snapshot, so a concurrent Publish never splits one batch
// across versions.
//
// The element type selects the assign hot path's precision: float64
// reproduces the pre-generic Batcher exactly; float32 runs the
// register-tiled Dgemm microkernel against the registry's precomputed
// float32 centroid mirror — half the memory traffic per flush, answers
// within the relative-error bounds documented in EXPERIMENTS.md.
type BatcherOf[T blas.Float] struct {
	reg  *Registry
	opts BatcherOptions
	lat  *metrics.Latency

	mu       sync.Mutex
	queue    []pendingReq[T]
	queued   int // rows currently queued
	inflight map[string]int
	stopped  bool

	work chan struct{} // queue went empty -> non-empty
	full chan struct{} // queued reached MaxBatch
	stop chan struct{}
	done chan struct{}

	requests metrics.Counter
	rows     metrics.Counter
	flushes  metrics.Counter
	rejected metrics.Counter

	// blocks recycles the m×k distance block (a *[]T) between flushes.
	blocks sync.Pool
}

// Batcher is the float64 assignment path.
type Batcher = BatcherOf[float64]

// NewBatcher starts the float64 assignment path over a registry. Close
// it to stop the background flusher.
func NewBatcher(reg *Registry, opts BatcherOptions) *Batcher {
	return NewBatcherOf[float64](reg, opts)
}

// NewBatcherOf starts the assignment path at element type T over a
// registry. Close it to stop the background flusher.
func NewBatcherOf[T blas.Float](reg *Registry, opts BatcherOptions) *BatcherOf[T] {
	lat := metrics.NewLatency(1)
	if !opts.Internal {
		// The edge's reservoir (exact Stats quantiles) mirrors into the
		// registered histogram so /metrics reports the same stream.
		lat.Mirror(telRequestSeconds)
	}
	b := &BatcherOf[T]{
		reg:      reg,
		opts:     opts.withDefaults(),
		lat:      lat,
		inflight: map[string]int{},
		work:     make(chan struct{}, 1),
		full:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.flusher()
	return b
}

// Assign answers one query row (blocking until its flush completes).
func (b *BatcherOf[T]) Assign(model string, row []T) (Assignment, error) {
	m := matrix.New[T](1, len(row))
	copy(m.Data, row)
	as, err := b.AssignBatch(model, m)
	if err != nil {
		return Assignment{}, err
	}
	return as[0], nil
}

// AssignBatch answers every row of rows against the named model. The
// rows matrix must not be mutated until the call returns. When the
// model already has ModelQuota requests in flight the call fails fast
// with an error wrapping ErrOverloaded — backpressure instead of an
// unbounded queue.
func (b *BatcherOf[T]) AssignBatch(model string, rows *matrix.Mat[T]) ([]Assignment, error) {
	return b.AssignBatchTraced(model, rows, nil)
}

// AssignBatchTraced is AssignBatch with an injected trace: the fan-out
// edge passes the sampled request's trace into one shard batcher so the
// dump shows the enqueue/coalesce/GEMM stages inside the shard. With a
// nil trace the batcher samples its own tracer (edge batchers only).
func (b *BatcherOf[T]) AssignBatchTraced(model string, rows *matrix.Mat[T], tr *telemetry.Trace) ([]Assignment, error) {
	if rows.Rows() == 0 {
		return nil, nil
	}
	owned := false
	if tr == nil && !b.opts.Internal {
		if tr = b.opts.Tracer.Sample(); tr != nil {
			owned = true
		}
	}
	req := pendingReq[T]{model: model, rows: rows, out: make(chan batchAnswer, 1),
		start: time.Now(), trace: tr}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return nil, fmt.Errorf("serve: batcher closed")
	}
	if q := b.opts.ModelQuota; q > 0 && b.inflight[model] >= q {
		b.mu.Unlock()
		b.rejected.Inc()
		if !b.opts.Internal {
			telRejected.Inc()
		}
		return nil, fmt.Errorf("%w: model %q has %d requests in flight", ErrOverloaded, model, q)
	}
	b.inflight[model]++
	wasEmpty := len(b.queue) == 0
	b.queue = append(b.queue, req)
	b.queued += rows.Rows()
	isFull := b.queued >= b.opts.MaxBatch
	b.mu.Unlock()
	telQueueDepth.Add(float64(rows.Rows()))
	if !b.opts.Internal {
		telInflight.With(model).Inc()
	}
	if wasEmpty {
		signal(b.work)
	}
	if isFull {
		signal(b.full)
	}
	ans := <-req.out
	b.mu.Lock()
	if b.inflight[model]--; b.inflight[model] == 0 {
		delete(b.inflight, model)
	}
	b.mu.Unlock()
	if !b.opts.Internal {
		telInflight.With(model).Dec()
	}
	if ans.err != nil {
		return nil, ans.err
	}
	if owned {
		// Injected traces (sharded fan-out) get their reply span at the
		// fan-out edge, after the cross-shard min — not per shard.
		tr.Span("reply", ans.done, time.Now())
		b.opts.Tracer.Done(tr)
	}
	b.lat.Observe(time.Since(req.start).Seconds())
	b.requests.Inc()
	b.rows.Add(uint64(rows.Rows()))
	if !b.opts.Internal {
		telRequests.Inc()
		telRows.Add(uint64(rows.Rows()))
	}
	return ans.assigns, nil
}

// AssignRows answers float64 query rows regardless of the batcher's
// element type, converting once when T is narrower. This is the
// precision-independent entry the HTTP server uses (JSON queries decode
// to float64 either way).
func (b *BatcherOf[T]) AssignRows(model string, rows *matrix.Dense) ([]Assignment, error) {
	if m, ok := any(rows).(*matrix.Mat[T]); ok {
		return b.AssignBatch(model, m)
	}
	return b.AssignBatch(model, matrix.Convert[T](rows))
}

// signal performs a non-blocking send on a 1-buffered channel.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Stats reports counters and latency quantiles.
func (b *BatcherOf[T]) Stats() BatcherStats {
	st := BatcherStats{
		Requests: b.requests.Load(), Rows: b.rows.Load(),
		Flushes: b.flushes.Load(), Rejected: b.rejected.Load(),
	}
	b.mu.Lock()
	st.Queued = b.queued
	b.mu.Unlock()
	st.P50 = b.lat.Quantile(0.50)
	st.P95 = b.lat.Quantile(0.95)
	st.P99 = b.lat.Quantile(0.99)
	st.Mean = b.lat.Mean()
	return st
}

// InFlight snapshots the per-model in-flight request counts (queued or
// being answered right now).
func (b *BatcherOf[T]) InFlight() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.inflight))
	for m, n := range b.inflight {
		out[m] = n
	}
	return out
}

// Close rejects new requests, answers everything queued, and stops the
// flusher.
func (b *BatcherOf[T]) Close() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

// flusher sleeps until work arrives and drains the queue. With
// MaxWait == 0 it drains at once; otherwise it first gives the queue
// MaxWait to fill (woken early when MaxBatch rows are reached). The
// full channel only carries wakeups; the authoritative fullness check
// is fullNow, so a token left over from a batch that drain already
// picked up cannot cut the next batch's MaxWait window short.
func (b *BatcherOf[T]) flusher() {
	defer close(b.done)
	for {
		select {
		case <-b.work:
		case <-b.stop:
			b.drain()
			return
		}
		if b.opts.MaxWait > 0 && !b.fullNow() {
			t := time.NewTimer(b.opts.MaxWait)
		wait:
			for {
				select {
				case <-b.full:
					if b.fullNow() {
						break wait
					}
					// Stale token: keep waiting out MaxWait.
				case <-t.C:
					break wait
				case <-b.stop:
					t.Stop()
					b.drain()
					return
				}
			}
			t.Stop()
		}
		b.drain()
	}
}

// fullNow reports whether MaxBatch rows are queued right now.
func (b *BatcherOf[T]) fullNow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued >= b.opts.MaxBatch
}

// Flush synchronously answers everything queued right now, without
// closing the batcher: new requests keep being accepted. The server's
// shutdown path calls it repeatedly so in-flight handlers are answered
// immediately instead of waiting out a positive MaxWait. Safe
// concurrently with the background flusher — each queued request is
// popped by exactly one drain.
func (b *BatcherOf[T]) Flush() { b.drain() }

// drain flushes until the queue is empty.
func (b *BatcherOf[T]) drain() {
	for {
		b.mu.Lock()
		batch := b.queue
		taken := b.queued
		b.queue = nil
		b.queued = 0
		b.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		telQueueDepth.Add(-float64(taken))
		telBatchRows.Observe(float64(taken))
		b.flush(batch)
	}
}

// flush groups queued requests by model and answers each group with a
// single GEMM-formulated distance computation against one snapshot.
func (b *BatcherOf[T]) flush(batch []pendingReq[T]) {
	flushStart := time.Now()
	for i := range batch {
		// Traced requests: the enqueue span is arrival → flush pickup
		// (time queued behind the previous flush, plus the MaxWait
		// window when one is set).
		batch[i].trace.Span("enqueue", batch[i].start, flushStart)
	}
	groups := map[string][]int{}
	for i, r := range batch {
		groups[r.model] = append(groups[r.model], i)
	}
	for model, idxs := range groups {
		snap, ok := b.reg.Get(model)
		if !ok {
			for _, i := range idxs {
				batch[i].out <- batchAnswer{err: fmt.Errorf("serve: unknown model %q", model)}
			}
			continue
		}
		d := snap.Dims()
		// Answer dim-mismatched requests with errors; pack the rest
		// into one contiguous m×d block.
		live := idxs[:0]
		total := 0
		for _, i := range idxs {
			if batch[i].rows.Cols() != d {
				batch[i].out <- batchAnswer{err: fmt.Errorf(
					"serve: model %q dims %d, query dims %d", model, d, batch[i].rows.Cols())}
				continue
			}
			live = append(live, i)
			total += batch[i].rows.Rows()
		}
		if total == 0 {
			continue
		}
		// A lone request is already one contiguous row block: scan it
		// in place instead of packing a copy.
		a := batch[live[0]].rows.Data
		if len(live) > 1 {
			a = make([]T, total*d)
			off := 0
			for _, i := range live {
				copy(a[off:], batch[i].rows.Data)
				off += len(batch[i].rows.Data)
			}
		}
		gemmStart := time.Now()
		var assigns []Assignment
		if a32, ok := any(a).([]float32); ok && b.opts.Quantize == "int8" {
			var fallbacks int
			assigns, fallbacks = assignBlockQuant(a32, total, snap,
				b.opts.Threads, b.opts.RawSqDist, b.opts.QuantRerank)
			telQuantRows.Add(uint64(total))
			if fallbacks > 0 {
				telQuantFallbacks.Add(uint64(fallbacks))
			}
		} else {
			assigns = b.assignBlock(a, total, snap)
		}
		gemmEnd := time.Now()
		telGemmSeconds.Observe(gemmEnd.Sub(gemmStart).Seconds())
		row := 0
		for _, i := range live {
			if batch[i].trace != nil {
				batch[i].trace.Span("coalesce", flushStart, gemmStart)
				batch[i].trace.Span("gemm", gemmStart, gemmEnd)
			}
			n := batch[i].rows.Rows()
			batch[i].out <- batchAnswer{assigns: assigns[row : row+n : row+n], done: gemmEnd}
			row += n
		}
	}
	b.flushes.Inc()
	telFlushes.Inc()
}

// assignBlock computes nearest centroids for an m×d row block via the
// ‖v‖² + ‖c‖² − 2·V·Cᵀ identity, reusing the snapshot's cached ‖c‖² at
// the block's element type. RawSqDist skips the cancellation clamp (the
// sharded combiner clamps once, after the cross-shard min).
func (b *BatcherOf[T]) assignBlock(a []T, m int, snap *Model) []Assignment {
	k, d := snap.K(), snap.Dims()
	cents, normsSq := centroidsOf[T](snap)
	block, _ := b.blocks.Get().(*[]T)
	if block == nil || cap(*block) < m*k {
		block = new([]T)
		*block = make([]T, m*k)
	}
	dist := (*block)[:m*k]
	// Accumulate into a zeroed block with beta = 1. Dgemm scales c by
	// beta first, and beta = 0 would turn a ±Inf an earlier flush left
	// in the block into NaN (0·Inf).
	clear(dist)
	blas.Dgemm(-2, a, m, d, cents.Data, k, 1, dist, b.opts.Threads)
	an := make([]T, m)
	blas.RowNormsSq(a, m, d, an)
	out := make([]Assignment, m)
	for i := 0; i < m; i++ {
		row := dist[i*k : (i+1)*k]
		best, bi := row[0]+an[i]+normsSq[0], 0
		for j := 1; j < k; j++ {
			if v := row[j] + an[i] + normsSq[j]; v < best {
				best, bi = v, j
			}
		}
		if best < 0 && !b.opts.RawSqDist { // numerical cancellation
			best = 0
		}
		out[i] = Assignment{Cluster: int32(bi), SqDist: float64(best), Version: snap.Version}
	}
	b.blocks.Put(block)
	return out
}

// Assigner is the precision-independent view of a batcher: what the
// HTTP server programs against so -precision only changes construction.
type Assigner interface {
	// AssignRows answers float64 query rows against the named model.
	AssignRows(model string, rows *matrix.Dense) ([]Assignment, error)
	// Stats reports counters and latency quantiles.
	Stats() BatcherStats
	// InFlight snapshots the per-model in-flight request counts.
	InFlight() map[string]int
	// Flush answers everything queued right now without closing.
	Flush()
	// Close rejects new requests, answers everything queued, and stops
	// the flusher.
	Close()
}

// NewAssigner builds the batched assignment path at the requested
// precision.
func NewAssigner(reg *Registry, opts BatcherOptions, p kmeans.Precision) Assigner {
	if p == kmeans.Precision32 {
		return NewBatcherOf[float32](reg, opts)
	}
	return NewBatcherOf[float64](reg, opts)
}
