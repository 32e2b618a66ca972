package main

import (
	"math"
	"testing"
)

func TestStageParentsNestShardStages(t *testing.T) {
	names := []string{"shard_1", "shard_0", "enqueue", "rank1/decode", "coalesce", "gemm",
		"rank1/shard_gemm", "min_allreduce", "reply"}
	want := []int{-1, -1, 1, 0, 1, 1, 0, -1, -1}
	got := stageParents(names)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: parent %d, want %d", names[i], got[i], want[i])
		}
	}
	// Single-node traces have no shard stages: everything is top level.
	for i, p := range stageParents([]string{"enqueue", "coalesce", "gemm", "reply"}) {
		if p != -1 {
			t.Errorf("single-node stage %d nested under %d", i, p)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	r := &recorder{}
	root := r.addUS("t", "root", 0, 0, 10_000)
	r.addUS("t", "a", root, 1_000, 4_000)
	r.addUS("t", "b", root, 3_000, 6_000) // overlaps a: union is 1..6 ms
	r.addUS("t", "c", root, 9_000, 12_000)
	self := map[string]float64{}
	for _, s := range selfTimes(r.spans) {
		self[s.Name] = s.SelfMS
	}
	for name, want := range map[string]float64{"root": 4, "a": 3, "b": 3, "c": 3} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("%s self time %v ms, want %v", name, self[name], want)
		}
	}
}
