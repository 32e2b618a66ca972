package telemetry

import (
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
// by family name and label tuple (the order WritePrometheus renders),
// suitable for serialization across processes.
func (r *Registry) Snapshot() []SnapshotFamily {
	r.mu.Lock()
	insts := make([]*instrument, 0, len(r.insts))
	for _, in := range r.insts {
		insts = append(insts, in)
	}
	r.mu.Unlock()
	sort.Slice(insts, func(i, j int) bool { return insts[i].name < insts[j].name })

	out := make([]SnapshotFamily, len(insts))
	for i, in := range insts {
		out[i] = snapshotFamily(in)
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
	// Copy each child under the lock: With sets a new child's
	// instrument after creating it.
	type keyed struct {
		key string
		c   child
	}
	in.mu.Lock()
	children := make([]keyed, 0, len(in.children))
	for k, c := range in.children {
		children = append(children, keyed{k, *c})
	}
	in.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].key < children[j].key })
	for _, kc := range children {
		c := kc.c
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
		SnapshotFamily
		ranks []int // the rank of each of Samples, in rank order
	}
	fams := map[string]*fam{}
	ordered := append([]RankSnapshot(nil), snaps...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })
	for _, rs := range ordered {
		for _, sf := range rs.Families {
			f, ok := fams[sf.Name]
			if !ok {
				f = &fam{SnapshotFamily: SnapshotFamily{Name: sf.Name, Help: sf.Help, Kind: sf.Kind, LabelNames: sf.LabelNames}}
				fams[sf.Name] = f
			}
			if f.Kind != sf.Kind {
				// A kind clash across ranks (mixed binary versions) would
				// corrupt exposition; keep the first kind and drop the rest.
				continue
			}
			for _, s := range sf.Samples {
				f.ranks = append(f.ranks, rs.Rank)
				f.Samples = append(f.Samples, s)
			}
		}
	}
	// Synthetic staleness gauge so dead workers are visible in the scrape
	// itself.
	stale := &fam{SnapshotFamily: SnapshotFamily{Name: "knor_federation_stale",
		Help: "1 when this rank's metrics could not be pulled (dead or timed-out worker).", Kind: "gauge"}}
	for _, rs := range ordered {
		v := 0.0
		if rs.Stale {
			v = 1
		}
		stale.ranks = append(stale.ranks, rs.Rank)
		stale.Samples = append(stale.Samples, SnapshotSample{Value: v})
	}
	fams[stale.Name] = stale
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		formatFamily(&b, fams[n].SnapshotFamily, fams[n].ranks)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
