package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one named step of a traced request, as offsets from the
// trace's begin time so a dump is self-contained.
type Stage struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_us"`
	Dur   time.Duration `json:"dur_us"`
}

// Trace captures one sampled request's lifecycle as a flat span list
// (enqueue → batch coalesce → GEMM → shard fan-out → the coordinator's
// argmin fold, span min_allreduce → reply). A nil *Trace is the
// not-sampled case and every method on it is a no-op, so hot paths
// call unconditionally.
type Trace struct {
	ID    uint64
	Begin time.Time

	mu     sync.Mutex
	stages []Stage
	end    time.Time
}

// SpanContext is the propagatable identity of a sampled trace: enough
// to carry across a process boundary (trace ID + parent span + sampled
// bit) without shipping the span list itself. The zero value means
// "not sampled".
type SpanContext struct {
	TraceID uint64
	Parent  uint64
	Sampled bool
}

var spanIDs atomic.Uint64

// NewSpanID returns a process-unique span identifier for use as the
// Parent of an outgoing SpanContext.
func NewSpanID() uint64 { return spanIDs.Add(1) }

// Context returns the trace's propagatable context with a fresh parent
// span ID. The zero SpanContext for a nil (unsampled) trace.
func (t *Trace) Context() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: t.ID, Parent: NewSpanID(), Sampled: true}
}

// Span records a named stage spanning [start, end). Offsets and
// durations are clamped non-negative so out-of-order or racing Span
// calls can never render a negative bar in a dump.
func (t *Trace) Span(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.SpanAt(name, start.Sub(t.Begin), end.Sub(start))
}

// SpanAt records a stage from an explicit offset and duration relative
// to the trace's begin time. This is the skew-safe entry point for
// spans measured on another machine: the remote side reports offsets
// from an event both sides can anchor (request receipt), never
// absolute wall times, and the caller adds its local dispatch offset.
func (t *Trace) SpanAt(name string, start, dur time.Duration) {
	if t == nil {
		return
	}
	if start < 0 {
		start = 0
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Start: start, Dur: dur})
	t.mu.Unlock()
}

// Stages returns a snapshot of the recorded stages, sorted by start
// offset (stable, so same-offset spans keep insertion order).
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Stage(nil), t.stages...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// End returns the trace's completion time (zero until finished).
func (t *Trace) End() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.end
}

// RemoteSpan is one span measured on another process, expressed as
// offsets from an anchor event both sides observe (the moment the
// worker received the request). Offsets are measured on the worker's
// own monotonic clock and re-anchored by the caller at its local
// dispatch time, so wall-clock skew between machines never enters a
// stitched timeline.
type RemoteSpan struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Tracer samples one request in every Every and keeps the most recent
// completed traces in a fixed ring. A nil *Tracer never samples, so
// components take one without caring whether tracing is configured.
type Tracer struct {
	every int64
	n     atomic.Int64
	id    atomic.Uint64

	mu   sync.Mutex
	ring []*Trace
	next int
}

// NewTracer samples one request in every (>= 1), retaining the keep
// (default 16) most recent completed traces.
func NewTracer(every, keep int) *Tracer {
	if every < 1 {
		every = 1
	}
	if keep < 1 {
		keep = 16
	}
	return &Tracer{every: int64(every), ring: make([]*Trace, keep)}
}

// Sample returns a fresh Trace when this request is selected, nil
// otherwise (and always nil while telemetry is disabled or the tracer
// itself is nil).
func (tr *Tracer) Sample() *Trace {
	if tr == nil || !enabled.Load() {
		return nil
	}
	if tr.n.Add(1)%tr.every != 0 {
		return nil
	}
	return &Trace{ID: tr.id.Add(1), Begin: time.Now()}
}

// Done finishes a sampled trace and stores it in the ring. No-op for a
// nil trace or nil tracer.
func (tr *Tracer) Done(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	t.end = time.Now()
	t.mu.Unlock()
	tr.mu.Lock()
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.mu.Unlock()
}

// Traces returns the completed traces, most recent first.
func (tr *Tracer) Traces() []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Trace, 0, len(tr.ring))
	for i := 0; i < len(tr.ring); i++ {
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		if tr.ring[idx] != nil {
			out = append(out, tr.ring[idx])
		}
	}
	return out
}
