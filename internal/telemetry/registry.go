package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry names instruments and renders them in Prometheus text
// exposition format. Registration is get-or-create: asking twice for
// the same name returns the same instrument (process-wide series
// semantics), and asking with a conflicting kind panics loudly at init
// time rather than corrupting exposition quietly at scrape time.
type Registry struct {
	mu    sync.Mutex
	insts map[string]*instrument

	// maxLabelSets caps the distinct label-value tuples per labeled
	// family; beyond it new tuples collapse into one _overflow series
	// (<= 0 means unlimited). Keeps a misbehaving client — e.g. a label
	// derived from request content — from growing the registry without
	// bound.
	maxLabelSets atomic.Int64
}

// instrument is one registered family: a scalar instrument, a callback,
// or a labeled family keyed by its label value tuple.
type instrument struct {
	name, help, kind string // kind: counter | gauge | histogram
	labels           []string
	reg              *Registry

	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram

	mu       sync.Mutex // guards children
	children map[string]*child
}

type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// DefaultMaxLabelSets is the per-family cap on distinct label-value
// tuples a new registry starts with.
const DefaultMaxLabelSets = 1024

// NewRegistry builds an empty registry. Most callers want Default.
func NewRegistry() *Registry {
	r := &Registry{insts: map[string]*instrument{}}
	r.maxLabelSets.Store(DefaultMaxLabelSets)
	return r
}

// SetMaxLabelSets changes the per-family cap on distinct label-value
// tuples (<= 0 means unlimited). Existing series are never evicted;
// the cap only gates creation of new ones.
func (r *Registry) SetMaxLabelSets(n int) { r.maxLabelSets.Store(int64(n)) }

// Default is the process-wide registry every subsystem registers
// against at init; knorserve's GET /metrics serves it.
var Default = NewRegistry()

func (r *Registry) get(name, help, kind string, labels []string) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		if in.kind != kind || len(in.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %q re-registered as %s/%v (was %s/%v)",
				name, kind, labels, in.kind, in.labels))
		}
		return in
	}
	in := &instrument{name: name, help: help, kind: kind, labels: labels, reg: r}
	if len(labels) > 0 {
		in.children = map[string]*child{}
	}
	r.insts[name] = in
	return in
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	in := r.get(name, help, "counter", nil)
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.counter == nil {
		in.counter = &Counter{}
	}
	return in.counter
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	in := r.get(name, help, "gauge", nil)
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.gauge == nil {
		in.gauge = &Gauge{}
	}
	return in.gauge
}

// GaugeFunc registers (or replaces) a callback gauge evaluated at
// exposition time — for values that already live somewhere (model
// count, resident cache pages) and should not be double-tracked.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	in := r.get(name, help, "gauge", nil)
	in.mu.Lock()
	in.gfn = fn
	in.mu.Unlock()
}

// Histogram returns the registered histogram, creating it with the
// given bounds on first use (later bounds are ignored: first writer
// wins, matching get-or-create).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	in := r.get(name, help, "histogram", nil)
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.hist == nil {
		in.hist = NewHistogram(bounds)
	}
	return in.hist
}

// CounterVec is a labeled counter family.
type CounterVec struct{ in *instrument }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ in *instrument }

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	in     *instrument
	bounds []float64
}

// CounterVec returns the registered labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{in: r.get(name, help, "counter", labels)}
}

// GaugeVec returns the registered labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{in: r.get(name, help, "gauge", labels)}
}

// HistogramVec returns the registered labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{in: r.get(name, help, "histogram", labels), bounds: bounds}
}

// childKey joins label values; \xff never appears in sane label values.
func childKey(vals []string) string { return strings.Join(vals, "\xff") }

// OverflowLabel is the label value every dimension of a dropped tuple
// collapses to once a family hits the registry's label-set cap.
const OverflowLabel = "_overflow"

// droppedLabels is the counter bumped each time a new label tuple is
// routed to the overflow series instead of getting its own child.
func (r *Registry) droppedLabels() *Counter {
	return r.Counter("knor_telemetry_dropped_labels_total",
		"Label tuples collapsed into _overflow series by the per-family cardinality cap.")
}

func (in *instrument) child(vals []string) *child {
	if len(vals) != len(in.labels) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values, got %d",
			in.name, len(in.labels), len(vals)))
	}
	key := childKey(vals)
	in.mu.Lock()
	c, ok := in.children[key]
	if ok {
		in.mu.Unlock()
		return c
	}
	ovals := make([]string, len(in.labels))
	for i := range ovals {
		ovals[i] = OverflowLabel
	}
	okey := childKey(ovals)
	if max := in.reg.maxLabelSets.Load(); max > 0 && int64(len(in.children)) >= max && key != okey {
		// At the cap: collapse this tuple into the single overflow child
		// so exposition stays bounded no matter what label values arrive.
		c, ok = in.children[okey]
		if !ok {
			c = &child{labelVals: ovals}
			in.children[okey] = c
		}
		in.mu.Unlock()
		in.reg.droppedLabels().Inc()
		return c
	}
	c = &child{labelVals: append([]string(nil), vals...)}
	in.children[key] = c
	in.mu.Unlock()
	return c
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(vals ...string) *Counter {
	c := v.in.child(vals)
	v.in.mu.Lock()
	defer v.in.mu.Unlock()
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	c := v.in.child(vals)
	v.in.mu.Lock()
	defer v.in.mu.Unlock()
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	c := v.in.child(vals)
	v.in.mu.Lock()
	defer v.in.mu.Unlock()
	if c.hist == nil {
		c.hist = NewHistogram(v.bounds)
	}
	return c.hist
}

// --- exposition --------------------------------------------------------

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (version 0.0.4), sorted by family name and
// label tuple so output is deterministic for golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.Snapshot() {
		formatFamily(&b, f, nil)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFamily is the one text-format writer behind /metrics and
// /metrics/cluster: a family's HELP and TYPE lines, then a line per
// counter or gauge sample, or a histogram sample's cumulative buckets,
// sum and count. When ranks is not nil, sample i's label set leads
// with rank="ranks[i]".
func formatFamily(b *strings.Builder, f SnapshotFamily, ranks []int) {
	if f.Help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.Name, f.Kind)
	var labels []byte
	for i, s := range f.Samples {
		labels = labels[:0]
		if ranks != nil {
			labels = appendLabel(labels, "rank", strconv.Itoa(ranks[i]))
		}
		for j, name := range f.LabelNames {
			v := ""
			if j < len(s.Labels) {
				v = s.Labels[j]
			}
			labels = appendLabel(labels, name, v)
		}
		if f.Kind != "histogram" || len(s.Buckets) == 0 {
			writeSample(b, f.Name, "", labels, fmtVal(s.Value))
			continue
		}
		n := len(labels)
		var cum uint64
		for j, bound := range s.Bounds {
			if j < len(s.Buckets) {
				cum += s.Buckets[j]
			}
			labels = appendLabel(labels[:n], "le", fmtVal(bound))
			writeSample(b, f.Name, "_bucket", labels, strconv.FormatUint(cum, 10))
		}
		cum += s.Buckets[len(s.Buckets)-1]
		labels = appendLabel(labels[:n], "le", "+Inf")
		writeSample(b, f.Name, "_bucket", labels, strconv.FormatUint(cum, 10))
		writeSample(b, f.Name, "_sum", labels[:n], fmtVal(s.Sum))
		writeSample(b, f.Name, "_count", labels[:n], strconv.FormatUint(cum, 10))
	}
}

// writeSample writes one sample line: the series name, its label set
// in braces unless it is empty, and the value.
func writeSample(b *strings.Builder, name, suffix string, labels []byte, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		b.Write(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// appendLabel appends name="value" to a comma-separated label set,
// with the value escaped as the text format defines.
func appendLabel(set []byte, name, value string) []byte {
	if len(set) > 0 {
		set = append(set, ',')
	}
	set = append(set, name...)
	set = append(set, '=', '"')
	set = append(set, labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD"))...)
	return append(set, '"')
}

// The text format's only escapes: a backslash or newline, and in a
// label value a double quote, takes a backslash. Every other byte is
// written as it is, once invalid UTF-8 has become U+FFFD.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

func escapeHelp(s string) string {
	return helpEscaper.Replace(strings.ToValidUTF8(s, "\uFFFD"))
}

// fmtVal renders a float the way Prometheus clients do: integral values
// without an exponent, NaN/Inf spelled out.
func fmtVal(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
