package shardserve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"knor/internal/serve"
	"knor/internal/telemetry"
)

// Cluster-wide observability over the real TCP cluster: the federated
// metrics pull must survive a worker killed mid-scrape (stale marker,
// no hang), and a sampled /assign must stitch worker-local spans into
// one coordinator timeline with skew-safe offsets.

// TestClusterMetricsFederation: a healthy 3-rank cluster answers a
// federated pull with one snapshot per rank, none stale; killing a
// worker degrades its rank to a stale marker without stalling the
// scrape past the capped RPC timeout.
func TestClusterMetricsFederation(t *testing.T) {
	cents, queries := parityCase(13, 7, 48, 99)
	c := startServeCluster(t, 3, 2)
	if _, err := c.reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	assigner := NewAssignerOf[float64](c.sr, serve.BatcherOptions{})
	defer assigner.Close()
	if _, err := assigner.AssignBatch("m", queries); err != nil {
		t.Fatal(err)
	}

	snaps := FederateMetrics(c.hub, c.sr, telemetry.Default)
	if len(snaps) != 3 {
		t.Fatalf("federated %d ranks, want 3", len(snaps))
	}
	for _, s := range snaps {
		if s.Stale {
			t.Fatalf("rank %d stale in a healthy cluster", s.Rank)
		}
		if len(s.Families) == 0 {
			t.Fatalf("rank %d answered an empty snapshot", s.Rank)
		}
	}

	var buf strings.Builder
	if err := telemetry.WriteFederatedPrometheus(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`knor_federation_stale{rank="1"} 0`,
		`knor_federation_stale{rank="2"} 0`,
		`rank="1"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("federated exposition missing %q:\n%s", want, text)
		}
	}

	// Chaos: kill worker rank 2's process mid-life. The next scrape must
	// come back within the capped RPC timeout with rank 2 marked stale —
	// never an error, never a hang.
	c.ts[2].Close()
	start := time.Now()
	snaps = FederateMetrics(c.hub, c.sr, telemetry.Default)
	if el := time.Since(start); el > 4*time.Second {
		t.Fatalf("scrape with a dead worker took %s; must degrade, not hang", el)
	}
	if len(snaps) != 3 {
		t.Fatalf("federated %d ranks after kill, want 3", len(snaps))
	}
	if !snaps[2].Stale {
		t.Fatal("killed worker's rank not marked stale")
	}
	if snaps[1].Stale {
		t.Fatal("surviving worker marked stale")
	}
	buf.Reset()
	if err := telemetry.WriteFederatedPrometheus(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `knor_federation_stale{rank="2"} 1`) {
		t.Fatalf("exposition missing stale marker for rank 2:\n%s", buf.String())
	}
}

// TestClusterStitchedTrace: with every request sampled, an /assign that
// fans out to worker processes must come back with the workers' local
// spans (decode → shard_gemm → encode) stitched into the coordinator's
// trace under rank<m>/ names, every offset and duration non-negative
// (the skew-safety contract), alongside the coordinator's own fan-out
// spans.
func TestClusterStitchedTrace(t *testing.T) {
	cents, queries := parityCase(13, 7, 48, 99)
	c := startServeCluster(t, 3, 2)
	if _, err := c.reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(1, 8)
	assigner := NewAssignerOf[float64](c.sr, serve.BatcherOptions{
		Tracer: tracer,
	})
	defer assigner.Close()
	if _, err := assigner.AssignBatch("m", queries); err != nil {
		t.Fatal(err)
	}

	traces := tracer.Traces()
	if len(traces) == 0 {
		t.Fatal("no completed trace with every=1 sampling")
	}
	stages := traces[0].Stages()

	// Which machines served shards remotely? The plan's preference order
	// picks the first live replica, and every machine is live here.
	plan, ok := c.sr.GetPlan("m")
	if !ok {
		t.Fatal("no plan for published model")
	}
	remote := map[int]bool{}
	for _, reps := range plan.Replicas {
		if len(reps) > 0 && reps[0] != 0 {
			remote[reps[0]] = true
		}
	}
	if len(remote) == 0 {
		t.Fatalf("placement left no shard on a worker; plan %+v", plan.Replicas)
	}
	for m := range remote {
		for _, span := range []string{"decode", "shard_gemm", "encode"} {
			name := fmt.Sprintf("rank%d/%s", m, span)
			found := false
			for _, s := range stages {
				if s.Name == name {
					found = true
					if s.Start < 0 || s.Dur < 0 {
						t.Fatalf("stitched span %s has negative geometry: start=%s dur=%s",
							name, s.Start, s.Dur)
					}
				}
			}
			if !found {
				t.Fatalf("trace missing stitched span %q; have %+v", name, stages)
			}
		}
	}
	// The coordinator's own fan-out spans share the timeline.
	for _, s := range stages {
		if s.Name == "min_allreduce" {
			return
		}
	}
	t.Fatalf("trace missing coordinator min_allreduce span; have %+v", stages)
}
