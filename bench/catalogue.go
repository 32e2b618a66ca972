package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json names it. Bound is set for
// end-to-end metrics only: the share of the parent's median by which
// the metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// catalogue is the part of BENCHMARK.json the harness reads: the run
// length and every reported metric, so units, directions and bounds are
// stated once.
type catalogue struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadCatalogue(root string) (*catalogue, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(buf, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// worse is how much worse b reads than a, as a share of a: positive
// when b is worse in the metric's direction.
func (m metricDef) worse(a, b float64) float64 {
	d := (b - a) / a
	if m.Better == "higher" {
		d = -d
	}
	return d
}
