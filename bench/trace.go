package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// the program (training), around an HTTP request (client), or read
// back from knorserve's /debug/traces (server). Times are microseconds
// from the start of the run; a span's parent is the span that caused it,
// 0 for a root. Spans of one request or one training rep share a trace.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1e3 }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records [start, end) and returns the span's id (0 on a nil
// recorder).
func (r *recorder) add(trace, name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	return r.addUS(trace, name, parent,
		float64(start.Sub(r.t0).Nanoseconds())/1e3, float64(end.Sub(r.t0).Nanoseconds())/1e3)
}

func (r *recorder) addUS(trace, name string, parent int, startUS, endUS float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartUS: startUS, EndUS: endUS})
	return id
}

// setEnd closes a span opened with end == start once its children are
// recorded.
func (r *recorder) setEnd(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndUS = float64(end.Sub(r.t0).Nanoseconds()) / 1e3
}

// byName returns the durations in ms of every span named name.
func (r *recorder) byName(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores every span as JSON under path.
func (r *recorder) write(path string, header map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	doc := map[string]any{"spans": r.spans}
	for k, v := range header {
		doc[k] = v
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// stageSelf is one span name's self time: its duration minus the part
// of it its child spans cover, averaged over its count spans.
type stageSelf struct {
	Name    string
	Count   int
	SelfMS  float64
	TotalMS float64
}

// selfTimes computes the mean self time of every span name, in
// descending order of total self time.
func selfTimes(spans []span) []stageSelf {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*stageSelf{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &stageSelf{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMS += s.ms()
		a.SelfMS += s.ms() - coveredMS(s, children[s.ID])
	}
	out := make([]stageSelf, 0, len(agg))
	for _, a := range agg {
		a.SelfMS /= float64(a.Count)
		a.TotalMS /= float64(a.Count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].SelfMS*float64(out[i].Count), out[j].SelfMS*float64(out[j].Count)
		if ti != tj {
			return ti > tj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// coveredMS is the length of the union of the children's intervals
// clipped to the parent's.
func coveredMS(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end float64
	end = parent.StartUS
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total / 1e3
}

// stageParents gives each stage of one knorserve trace the index of
// its parent stage, or -1 for the trace root. knorserve reports a trace
// as a flat stage list; in a sharded request, the local shard group 0
// runs the request through its batcher (enqueue, coalesce, gemm inside
// shard_0), and a worker's stages rankN/* happen inside the fan-out to
// shard_N (shard N lives on machine N with one replica per group).
func stageParents(names []string) []int {
	index := map[string]int{}
	for i, n := range names {
		if _, ok := index[n]; !ok {
			index[n] = i
		}
	}
	parents := make([]int, len(names))
	for i, n := range names {
		parents[i] = -1
		parent := ""
		switch {
		case strings.HasPrefix(n, "rank"):
			if slash := strings.IndexByte(n, '/'); slash > 0 {
				parent = "shard_" + n[len("rank"):slash]
			}
		case n == "enqueue" || n == "coalesce" || n == "gemm":
			parent = "shard_0"
		}
		if j, ok := index[parent]; ok {
			parents[i] = j
		}
	}
	return parents
}
