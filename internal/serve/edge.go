package serve

import (
	"fmt"
	"sync"
	"time"

	"knor/internal/telemetry"
)

// EdgeTelemetry is one deployment's registered edge family: the
// single-node batcher records on knor_serve_… (telEdge), the sharded
// fan-out on knor_shardserve_…, so each request is counted once.
type EdgeTelemetry struct {
	Requests *telemetry.Counter
	Rows     *telemetry.Counter
	Rejected *telemetry.Counter
	Seconds  *telemetry.Histogram
	Inflight *telemetry.GaugeVec
}

// Edge is the front of the assign path, shared by the single-node
// BatcherOf and the sharded fan-out: every request is admitted against
// the per-model quota, held in the in-flight map, sampled for a trace,
// answered by the caller's raw path, clamped once and counted.
type Edge struct {
	quota  int
	tracer *telemetry.Tracer
	tel    EdgeTelemetry

	mu       sync.Mutex
	inflight map[string]int

	requests telemetry.Counter
	rows     telemetry.Counter
	rejected telemetry.Counter
}

// NewEdge builds an edge enforcing opts.ModelQuota and sampling
// opts.Tracer, recording on tel.
func NewEdge(opts BatcherOptions, tel EdgeTelemetry) *Edge {
	return &Edge{quota: opts.ModelQuota, tracer: opts.Tracer, tel: tel, inflight: map[string]int{}}
}

// Assign answers one request of n rows against the named model. answer
// computes raw squared distances for the request's trace (nil unless
// sampled) and reports when they were ready, where the reply span
// starts. Cancellation noise below zero is clamped on the final answer
// only, after any cross-shard min, so sharded tie-breaks match the
// single-node scan. A model with ModelQuota requests in flight fails
// fast with ErrOverloaded, before answer runs.
func (e *Edge) Assign(model string, n int, answer func(tr *telemetry.Trace) ([]Assignment, time.Time, error)) ([]Assignment, error) {
	if n == 0 {
		return nil, nil
	}
	e.mu.Lock()
	if e.quota > 0 && e.inflight[model] >= e.quota {
		e.mu.Unlock()
		e.rejected.Inc()
		e.tel.Rejected.Inc()
		return nil, fmt.Errorf("%w: model %q has %d requests in flight", ErrOverloaded, model, e.quota)
	}
	e.inflight[model]++
	e.mu.Unlock()
	gauge := e.tel.Inflight.With(model)
	gauge.Inc()
	defer func() {
		gauge.Dec()
		e.mu.Lock()
		if e.inflight[model]--; e.inflight[model] == 0 {
			delete(e.inflight, model)
		}
		e.mu.Unlock()
	}()
	start := time.Now()
	tr := e.tracer.Sample()
	as, ready, err := answer(tr)
	if err != nil {
		return nil, err
	}
	for i := range as {
		if as[i].SqDist < 0 { // numerical cancellation
			as[i].SqDist = 0
		}
	}
	done := time.Now()
	tr.Span("reply", ready, done)
	e.tracer.Done(tr)
	e.tel.Seconds.Observe(done.Sub(start).Seconds())
	e.requests.Inc()
	e.rows.Add(uint64(n))
	e.tel.Requests.Inc()
	e.tel.Rows.Add(uint64(n))
	return as, nil
}

// Stats reports the edge's request, row and rejection counts; the
// caller adds its flush and queue figures.
func (e *Edge) Stats() BatcherStats {
	return BatcherStats{Requests: e.requests.Load(), Rows: e.rows.Load(), Rejected: e.rejected.Load()}
}

// InFlight snapshots the per-model in-flight request counts (admitted
// and not yet answered).
func (e *Edge) InFlight() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.inflight))
	for m, n := range e.inflight {
		out[m] = n
	}
	return out
}
