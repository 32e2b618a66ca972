package knor_test

import (
	"math"
	"testing"

	"knor"
)

// TestFacadePrecision drives the precision API exactly as an external
// caller would: RunPrecision at both widths, the direct float32 entry,
// and the precision-selected serving assigner.
func TestFacadePrecision(t *testing.T) {
	data := knor.Generate(knor.Spec{
		Kind: knor.NaturalClusters, N: 2000, D: 8, Clusters: 6, Spread: 0.05, Seed: 1,
	})
	cfg := knor.Config{K: 6, MaxIters: 40, Seed: 2, Prune: knor.PruneMTI}

	oracle, err := knor.Run(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r64, err := knor.RunPrecision(data, cfg, knor.Precision64)
	if err != nil {
		t.Fatal(err)
	}
	if r64.SSE != oracle.SSE {
		t.Fatalf("Precision64 SSE %g != oracle %g", r64.SSE, oracle.SSE)
	}

	r32, err := knor.RunPrecision(data, cfg, knor.Precision32)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(r32.SSE-oracle.SSE) / oracle.SSE; rel > 1e-3 {
		t.Fatalf("Precision32 SSE %g vs %g (rel %g)", r32.SSE, oracle.SSE, rel)
	}

	direct, err := knor.Run32(knor.ConvertMatrix32(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.SSE != r32.SSE {
		t.Fatalf("Run32 SSE %g != RunPrecision32 SSE %g", direct.SSE, r32.SSE)
	}

	reg := knor.NewRegistry(1)
	if _, err := reg.Publish("m", oracle.Centroids); err != nil {
		t.Fatal(err)
	}
	for _, p := range []knor.Precision{knor.Precision64, knor.Precision32} {
		a := knor.NewAssigner(reg, knor.BatcherOptions{}, p)
		as, err := a.AssignRows("m", data)
		a.Close()
		if err != nil {
			t.Fatalf("precision %v: %v", p, err)
		}
		// Every row must land on its trained cluster: the model IS the
		// converged centroid set for this data.
		for i := range as {
			if as[i].Cluster != oracle.Assign[i] {
				t.Fatalf("precision %v: row %d assigned %d, trained %d",
					p, i, as[i].Cluster, oracle.Assign[i])
			}
		}
	}
}
