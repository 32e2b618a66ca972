package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// SnapshotSample is one series of a family at snapshot time. Labels
// holds the label values (parallel to the family's LabelNames; empty
// for unlabeled instruments). Counters and gauges fill Value;
// histograms fill Bounds/Buckets/Sum/Count (Buckets non-cumulative,
// last entry the +Inf bucket).
type SnapshotSample struct {
	Labels  []string
	Value   float64
	Bounds  []float64
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// SnapshotFamily is one instrument family frozen at snapshot time, in
// a plain-data form that can cross a process boundary.
type SnapshotFamily struct {
	Name       string
	Help       string
	Kind       string // counter | gauge | histogram
	LabelNames []string
	Samples    []SnapshotSample
}

// Quantile estimates the q-th quantile of a histogram sample by linear
// interpolation within the located bucket (Prometheus
// histogram_quantile semantics). NaN for empty or non-histogram
// samples; the last finite bound bounds estimates that land in the
// +Inf bucket.
func (s SnapshotSample) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Buckets {
		if float64(cum+c) >= rank {
			if i == len(s.Bounds) { // +Inf bucket: clamp to last bound
				if len(s.Bounds) == 0 {
					return math.NaN()
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot freezes every registered instrument into plain data, sorted
// by family name and label tuple (the same deterministic order as
// WritePrometheus), suitable for serialization across processes.
func (r *Registry) Snapshot() []SnapshotFamily {
	r.mu.Lock()
	names := make([]string, 0, len(r.insts))
	for n := range r.insts {
		names = append(names, n)
	}
	insts := make(map[string]*instrument, len(r.insts))
	for n, in := range r.insts {
		insts[n] = in
	}
	r.mu.Unlock()
	sort.Strings(names)

	out := make([]SnapshotFamily, 0, len(names))
	for _, n := range names {
		out = append(out, snapshotFamily(insts[n]))
	}
	return out
}

func snapshotFamily(in *instrument) SnapshotFamily {
	f := SnapshotFamily{
		Name:       in.name,
		Help:       in.help,
		Kind:       in.kind,
		LabelNames: append([]string(nil), in.labels...),
	}
	if len(in.labels) == 0 {
		in.mu.Lock()
		counter, gauge, gfn, hist := in.counter, in.gauge, in.gfn, in.hist
		in.mu.Unlock()
		switch {
		case counter != nil:
			f.Samples = []SnapshotSample{{Value: float64(counter.Load())}}
		case gfn != nil:
			f.Samples = []SnapshotSample{{Value: gfn()}}
		case gauge != nil:
			f.Samples = []SnapshotSample{{Value: gauge.Load()}}
		case hist != nil:
			f.Samples = []SnapshotSample{snapshotHist(hist, nil)}
		}
		return f
	}
	in.mu.Lock()
	keys := make([]string, 0, len(in.children))
	for k := range in.children {
		keys = append(keys, k)
	}
	children := make(map[string]*child, len(in.children))
	for k, c := range in.children {
		children[k] = c
	}
	in.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		c := children[k]
		vals := append([]string(nil), c.labelVals...)
		switch {
		case c.counter != nil:
			f.Samples = append(f.Samples, SnapshotSample{Labels: vals, Value: float64(c.counter.Load())})
		case c.gauge != nil:
			f.Samples = append(f.Samples, SnapshotSample{Labels: vals, Value: c.gauge.Load()})
		case c.hist != nil:
			f.Samples = append(f.Samples, snapshotHist(c.hist, vals))
		}
	}
	return f
}

func snapshotHist(h *Histogram, labels []string) SnapshotSample {
	return SnapshotSample{
		Labels:  labels,
		Bounds:  append([]float64(nil), h.Bounds()...),
		Buckets: h.BucketCounts(),
		Sum:     h.Sum(),
		Count:   h.Count(),
	}
}

// --- federation --------------------------------------------------------

// RankSnapshot is one cluster process's registry snapshot tagged with
// the rank whose series it holds. Stale marks a rank whose snapshot
// could not be pulled (dead or timed-out worker): its Families are
// whatever the coordinator last knew (possibly nil), and the
// federation renderer reports it via knor_federation_stale instead of
// blocking or failing the whole scrape.
type RankSnapshot struct {
	Rank     int
	Families []SnapshotFamily
	Stale    bool
}

// WriteFederatedPrometheus renders snapshots from many ranks as one
// Prometheus exposition: every sample gains a rank="N" label, families
// merge by name with HELP/TYPE emitted once, and the synthetic gauge
// knor_federation_stale{rank} reports 1 for every rank whose snapshot
// could not be pulled. Output is deterministic: families sorted by
// name, samples by rank then label tuple.
func WriteFederatedPrometheus(w io.Writer, snaps []RankSnapshot) error {
	type fam struct {
		help, kind string
		labelNames []string
		// one entry per (rank, sample), in rank order per family
		ranks   []int
		samples []SnapshotSample
	}
	fams := map[string]*fam{}
	names := []string{}
	ordered := append([]RankSnapshot(nil), snaps...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })
	for _, rs := range ordered {
		for _, sf := range rs.Families {
			f, ok := fams[sf.Name]
			if !ok {
				f = &fam{help: sf.Help, kind: sf.Kind, labelNames: sf.LabelNames}
				fams[sf.Name] = f
				names = append(names, sf.Name)
			}
			if f.kind != sf.Kind {
				// A kind clash across ranks (mixed binary versions) would
				// corrupt exposition; keep the first kind and drop the rest.
				continue
			}
			for _, s := range sf.Samples {
				f.ranks = append(f.ranks, rs.Rank)
				f.samples = append(f.samples, s)
			}
		}
	}
	// Synthetic staleness gauge so dead workers are visible in the scrape
	// itself.
	staleName := "knor_federation_stale"
	sf := &fam{help: "1 when this rank's metrics could not be pulled (dead or timed-out worker).", kind: "gauge"}
	for _, rs := range ordered {
		v := 0.0
		if rs.Stale {
			v = 1
		}
		sf.ranks = append(sf.ranks, rs.Rank)
		sf.samples = append(sf.samples, SnapshotSample{Value: v})
	}
	fams[staleName] = sf
	names = append(names, staleName)
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, f.kind)
		for i, s := range f.samples {
			lbl := federatedLabels(f.ranks[i], f.labelNames, s.Labels)
			if f.kind == "histogram" && len(s.Buckets) > 0 {
				writeSnapshotHist(&b, n, lbl, s)
				continue
			}
			fmt.Fprintf(&b, "%s{%s} %s\n", n, lbl, fmtVal(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func federatedLabels(rank int, names, vals []string) string {
	parts := []string{fmt.Sprintf("rank=%q", fmt.Sprint(rank))}
	for i := range names {
		v := ""
		if i < len(vals) {
			v = vals[i]
		}
		parts = append(parts, fmt.Sprintf("%s=%q", names[i], v))
	}
	return strings.Join(parts, ",")
}

func writeSnapshotHist(b *strings.Builder, name, labels string, s SnapshotSample) {
	var cum uint64
	for i, bound := range s.Bounds {
		if i < len(s.Buckets) {
			cum += s.Buckets[i]
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, fmtVal(bound), cum)
	}
	if len(s.Buckets) > 0 {
		cum += s.Buckets[len(s.Buckets)-1]
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, fmtVal(s.Sum))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, cum)
}
