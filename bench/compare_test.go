package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeAgainstBound(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "gflops", Better: "higher", Bound: 0.1}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, steady(10), steady(10.5), "ok"},
		{"worse past bound", lower, steady(10), steady(11.5), "REGRESSION"},
		{"better past bound", lower, steady(10), steady(8), "better"},
		{"higher is better: drop", higher, steady(10), steady(8.5), "REGRESSION"},
		{"higher is better: rise", higher, steady(10), steady(12), "better"},
		{"noisy parent", lower, []float64{5, 10, 15, 20, 8}, steady(11), "unresolved"},
		{"noisy but every run better", lower, []float64{10, 14, 18, 22, 12}, []float64{5, 9, 6, 4, 8}, "better"},
		{"per-layer has no bound", metricDef{Name: "x", Better: "lower"}, steady(1), steady(3), "-"},
		{"no runs", lower, nil, steady(1), "missing"},
	} {
		if got := judge(tc.def, tc.a, tc.b).status; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func writeRecords(t *testing.T, dir, name string, runs ...*result) string {
	t.Helper()
	p := filepath.Join(dir, name)
	buf, err := json.Marshal(records{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func run(seed int64, metrics map[string]float64) *result {
	return &result{Workload: "d16", Seed: seed, Correct: true, Metrics: metrics}
}

func TestCompareFilesFlagsRegressionAndCounts(t *testing.T) {
	cat := &catalogue{
		EndToEnd: []metricDef{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []metricDef{{Name: "kmeans.dist_calcs", Unit: "count", Better: "lower"}},
	}
	dir := t.TempDir()
	a := writeRecords(t, dir, "a.json",
		run(1, map[string]float64{"p50_ms": 1.00, "kmeans.dist_calcs": 100}),
		run(2, map[string]float64{"p50_ms": 1.01, "kmeans.dist_calcs": 120}),
		run(3, map[string]float64{"p50_ms": 0.99, "kmeans.dist_calcs": 90}))
	same := writeRecords(t, dir, "same.json",
		run(1, map[string]float64{"p50_ms": 1.02, "kmeans.dist_calcs": 100}),
		run(2, map[string]float64{"p50_ms": 1.00, "kmeans.dist_calcs": 120}),
		run(3, map[string]float64{"p50_ms": 1.01, "kmeans.dist_calcs": 90}))
	slow := writeRecords(t, dir, "slow.json",
		run(1, map[string]float64{"p50_ms": 1.30, "kmeans.dist_calcs": 100}),
		run(2, map[string]float64{"p50_ms": 1.31, "kmeans.dist_calcs": 121}),
		run(3, map[string]float64{"p50_ms": 1.29, "kmeans.dist_calcs": 90}))

	var out bytes.Buffer
	regressed, err := compareFiles(cat, a, same, &out)
	if err != nil || regressed {
		t.Fatalf("same code: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if strings.Contains(out.String(), "COUNT DIFFERS") {
		t.Fatalf("identical counts flagged:\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareFiles(cat, a, slow, &out)
	if err != nil || !regressed {
		t.Fatalf("30%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "COUNT DIFFERS: seed 2: 120 vs 121") {
		t.Fatalf("changed count under the same seed not flagged:\n%s", out.String())
	}
}
