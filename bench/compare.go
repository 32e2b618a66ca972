package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// exactCounts are the per-layer metrics the program computes exactly:
// under the same seed they must read the same on every run of the same
// code, so a difference means the change altered the work done.
var exactCounts = []string{"kmeans.dist_calcs", "kmeans.iters", "sem.active_rows", "store.requested_mb"}

// verdict compares one metric's runs in set a (the parent) with set b
// (the change). For an end-to-end metric with a bound, b is a
// regression when its median is worse than a's by more than the bound,
// and unresolved when either set's own spread exceeds the bound, unless
// every run of b reads better than every run of a.
type verdict struct {
	medA, medB       float64
	spreadA, spreadB float64
	worse            float64 // b's median against a's, positive = worse
	status           string
	nA, nB           int
}

func judge(def metricDef, a, b []float64) verdict {
	v := verdict{nA: len(a), nB: len(b)}
	if len(a) == 0 || len(b) == 0 {
		v.status = "missing"
		return v
	}
	v.medA, v.medB = median(a), median(b)
	v.spreadA, v.spreadB = spread(a), spread(b)
	v.worse = def.worse(v.medA, v.medB)
	switch {
	case def.Bound == 0:
		v.status = "-"
	case math.Max(v.spreadA, v.spreadB) > def.Bound:
		v.status = "unresolved"
		if allBetter(def, a, b) {
			v.status = "better"
		}
	case v.worse > def.Bound:
		v.status = "REGRESSION"
	case v.worse < -def.Bound:
		v.status = "better"
	default:
		v.status = "ok"
	}
	return v
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(def metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if def.worse(x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

func loadRecords(path string) (*records, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs records
	if err := json.Unmarshal(buf, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareFiles prints one row per workload and metric: both medians,
// the change, both spreads, the bound and the verdict. It reports
// whether any end-to-end metric regressed.
func compareFiles(cat *catalogue, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-6s %-28s %-6s %4s %14s %4s %14s %8s %8s %8s %7s  %s\n",
		"wl", "metric", "unit", "nA", "median A", "nB", "median B", "worse%", "sprA%", "sprB%", "bound%", "verdict")
	for _, wl := range workloadsIn(a, b) {
		for _, def := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
			v := judge(def, values(a, wl, def.Name), values(b, wl, def.Name))
			if v.status == "missing" && v.nA+v.nB == 0 {
				continue
			}
			if isExactCount(def.Name) {
				if diff := countMismatch(a, b, wl, def.Name); diff != "" {
					v.status = "COUNT DIFFERS: " + diff
				}
			}
			if v.status == "REGRESSION" {
				regressed = true
			}
			bound := "-"
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.1f", 100*def.Bound)
			}
			fmt.Fprintf(w, "%-6s %-28s %-6s %4d %14.6g %4d %14.6g %8.2f %8.2f %8.2f %7s  %s\n",
				wl, def.Name, def.Unit, v.nA, v.medA, v.nB, v.medB, 100*v.worse, 100*v.spreadA, 100*v.spreadB, bound, v.status)
		}
	}
	return regressed, nil
}

func isExactCount(name string) bool {
	for _, c := range exactCounts {
		if c == name {
			return true
		}
	}
	return false
}

// countMismatch compares an exact count between every pair of runs of
// the two sets that share a seed; it describes the first difference.
func countMismatch(a, b *records, wl, name string) string {
	bySeed := map[int64]float64{}
	for _, r := range a.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == wl {
			bySeed[r.Seed] = v
		}
	}
	for _, r := range b.Runs {
		v, ok := r.Metrics[name]
		if !ok || r.Workload != wl {
			continue
		}
		if va, ok := bySeed[r.Seed]; ok && va != v {
			return fmt.Sprintf("seed %d: %v vs %v", r.Seed, va, v)
		}
	}
	return ""
}

func values(rs *records, wl, name string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == wl && r.Correct {
			out = append(out, v)
		}
	}
	return out
}

func workloadsIn(sets ...*records) []string {
	seen := map[string]bool{}
	for _, s := range sets {
		for _, r := range s.Runs {
			seen[r.Workload] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
