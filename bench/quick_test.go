package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchQuick runs every workload end to end at toy size, traced,
// so the harness cannot rot: set-up, both trainers, both deployments,
// the traced pass, every correctness check, the result lines, the
// record file and -compare.
func TestBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("boots knorserve processes")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to build knorserve")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalogue(root)
	if err != nil {
		t.Fatal(err)
	}
	recs := filepath.Join(t.TempDir(), "runs.json")
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"-toy", "-seconds", "2", "-trace", "1", "-out", recs}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	var results int
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		results++
		var res struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("result line not correct: %s", line)
		}
		for _, m := range cat.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("per-layer metric %s missing or with unit %q", m.Name, got.Unit)
			}
		}
	}
	if results != len(workloads) {
		t.Fatalf("%d result lines for %d workloads:\n%s", results, len(workloads), stdout.String())
	}
	rs, err := loadRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Runs {
		for _, m := range cat.EndToEnd {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s record lacks end-to-end metric %s", r.Workload, m.Name)
			}
		}
	}
	var cmp bytes.Buffer
	if regressed, err := compareFiles(cat, recs, recs, &cmp); err != nil || regressed {
		t.Fatalf("a record file compared with itself: regressed=%v err=%v\n%s", regressed, err, cmp.String())
	}
}
