package serve

import (
	"testing"

	"knor/internal/matrix"
)

func mustPublish(t *testing.T, r *Registry, name string, rows [][]float64) *Model {
	t.Helper()
	c, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Publish(name, c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryVersioningAndCOW(t *testing.T) {
	r := NewRegistry(4)
	src, _ := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	v1, err := r.Publish("m", src)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Fatalf("first publish version = %d", v1.Version)
	}
	// Mutating the source after publish must not leak into the snapshot.
	src.Set(0, 0, 99)
	if got := v1.Centroids.At(0, 0); got != 1 {
		t.Fatalf("snapshot aliased the publisher's matrix: got %v", got)
	}
	v2 := mustPublish(t, r, "m", [][]float64{{2, 0}, {0, 2}})
	if v2.Version != 2 {
		t.Fatalf("second publish version = %d", v2.Version)
	}
	if v2.Node != v1.Node {
		t.Fatalf("republish moved the shard: node %d -> %d", v1.Node, v2.Node)
	}
	// v1 stays readable and intact.
	old, ok := r.GetVersion("m", 1)
	if !ok || old.Centroids.At(0, 0) != 1 {
		t.Fatalf("version 1 lost or mutated: ok=%v", ok)
	}
	latest, ok := r.Get("m")
	if !ok || latest.Version != 2 {
		t.Fatalf("latest = %+v ok=%v", latest, ok)
	}
	// Norms cache matches ‖c‖².
	if latest.NormsSq[0] != 4 || latest.NormsSq[1] != 4 {
		t.Fatalf("norms cache wrong: %v", latest.NormsSq)
	}
}

func TestRegistryPinsShardsRoundRobin(t *testing.T) {
	r := NewRegistry(3)
	nodes := map[int]int{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		m := mustPublish(t, r, name, [][]float64{{1, 2}})
		nodes[m.Node]++
	}
	for n := 0; n < 3; n++ {
		if nodes[n] != 2 {
			t.Fatalf("node %d holds %d shards, want 2 (map %v)", n, nodes[n], nodes)
		}
	}
}

func TestRegistryRejectsBadPublishes(t *testing.T) {
	r := NewRegistry(1)
	if _, err := r.Publish("", matrix.NewDense(1, 1)); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Publish("m", nil); err == nil {
		t.Fatal("nil centroids accepted")
	}
	mustPublish(t, r, "m", [][]float64{{1, 2}})
	if _, err := r.Publish("m", matrix.NewDense(1, 3)); err == nil {
		t.Fatal("dims change accepted")
	}
}

func TestRegistryHistoryBounded(t *testing.T) {
	r := NewRegistry(2)
	c, _ := matrix.FromRows([][]float64{{1, 2}})
	for i := 0; i < maxVersions+5; i++ {
		if _, err := r.Publish("m", c); err != nil {
			t.Fatal(err)
		}
	}
	latest, _ := r.Get("m")
	if latest.Version != maxVersions+5 {
		t.Fatalf("latest version = %d", latest.Version)
	}
	// Oldest retained is latest-maxVersions+1; anything older is gone.
	if _, ok := r.GetVersion("m", latest.Version-maxVersions+1); !ok {
		t.Fatal("newest retained version missing")
	}
	if _, ok := r.GetVersion("m", latest.Version-maxVersions); ok {
		t.Fatal("history not trimmed")
	}
	if len(r.versions["m"]) != maxVersions {
		t.Fatalf("retained %d versions", len(r.versions["m"]))
	}
}

func TestRegistryDrop(t *testing.T) {
	r := NewRegistry(2)
	snap := mustPublish(t, r, "m", [][]float64{{1, 2}})
	if !r.known("m") {
		t.Fatal("published model not known")
	}
	r.Drop("m")
	if _, ok := r.Get("m"); ok || r.known("m") {
		t.Fatal("model survived Drop")
	}
	if len(r.List()) != 0 {
		t.Fatal("List non-empty after Drop")
	}
	// Handed-out snapshots stay valid.
	if snap.Centroids.At(0, 1) != 2 {
		t.Fatal("snapshot invalidated by Drop")
	}
}
