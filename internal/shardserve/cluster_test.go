package shardserve

import (
	"math"
	"sync"
	"testing"
	"time"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/topology"
)

// The real-cluster serving path, exercised in-process: rank 0 runs the
// coordinator (Hub + ShardRegistry + fan-out assigner), ranks 1..M-1
// run ServePeer over real TCP loopback sockets. The acceptance is the
// same bit-parity contract the simulated shard layer proves, plus
// kill-a-process failover: closing a peer's transport must leave every
// query answerable with identical bits.

// serveCluster is one bootstrapped coordinator + peers fixture.
type serveCluster struct {
	ts    []*netcluster.TCPTransport
	reg   *serve.Registry
	topo  *topology.Topology
	hub   *Hub
	sr    *ShardRegistry
	peers sync.WaitGroup
}

// startServeCluster bootstraps an m-rank TCP cluster on loopback and
// wires the serving roles: the caller gets the coordinator's primary
// registry (publish into it) and shard registry.
func startServeCluster(t *testing.T, m, replicas int) *serveCluster {
	t.Helper()
	ln, err := netcluster.ListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := ln.Addr().String()
	c := &serveCluster{ts: make([]*netcluster.TCPTransport, m)}
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := netcluster.TCPOptions{
				Listen: "127.0.0.1:0", Join: coordAddr, Digest: "serve-test",
				BootstrapTimeout: 20 * time.Second,
			}
			if i == 0 {
				opts.Join, opts.Machines, opts.Listener = "", m, ln
			}
			tr, err := netcluster.DialCluster(opts)
			if err != nil {
				errs[i] = err
				return
			}
			c.ts[tr.Rank()] = tr
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d bootstrap: %v", i, err)
		}
	}
	for r := 1; r < m; r++ {
		c.peers.Add(1)
		go func(r int) {
			defer c.peers.Done()
			if err := ServePeer(c.ts[r], PeerOptions{
				Batcher:    serve.BatcherOptions{Threads: 1},
				PulseEvery: 50 * time.Millisecond,
			}); err != nil {
				t.Errorf("peer rank %d: %v", r, err)
			}
		}(r)
	}
	c.reg = serve.NewRegistry(1)
	c.topo = topology.New(topology.Config{Machines: m, PulseTimeout: time.Second})
	c.hub = NewHub(c.ts[0], 5*time.Second)
	c.sr = NewShardRegistryWith(Options{
		Machines: m, Replicas: replicas, Topology: c.topo, Remote: c.hub,
	})
	if err := c.sr.Attach(c.reg); err != nil {
		t.Fatal(err)
	}
	c.hub.Start(c.topo, c.sr)
	t.Cleanup(func() {
		c.hub.Close()
		for _, tr := range c.ts {
			tr.Close()
		}
		c.peers.Wait()
		c.topo.Close()
	})
	return c
}

// requireAnswerParity compares cluster answers to the single-node
// oracle bit for bit.
func requireAnswerParity[T blas.Float](t *testing.T, want, got []serve.Assignment, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: answer count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Cluster != want[i].Cluster || got[i].Version != want[i].Version {
			t.Fatalf("%s row %d: cluster/version %d/v%d, single node %d/v%d",
				label, i, got[i].Cluster, got[i].Version, want[i].Cluster, want[i].Version)
		}
		if math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
			t.Fatalf("%s row %d: sqdist bits %x, single node %x",
				label, i, math.Float64bits(got[i].SqDist), math.Float64bits(want[i].SqDist))
		}
	}
}

// clusterParity publishes a model into a real 3-process cluster and
// checks /assign parity against the single-node batcher at element
// type T — then kills a peer process and checks again.
func clusterParity[T blas.Float](t *testing.T) {
	cents, queries := parityCase(13, 7, 48, 99)
	c := startServeCluster(t, 3, 2)

	if _, err := c.reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	oracle := serve.NewBatcherOf[T](c.reg, serve.BatcherOptions{})
	defer oracle.Close()
	assigner := NewAssignerOf[T](c.sr, serve.BatcherOptions{})
	defer assigner.Close()

	q := matrix.Convert[T](queries)
	want, err := oracle.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := assigner.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswerParity[T](t, want, got, "healthy cluster")

	// Kill peer rank 1's process: its transport closes, the hub marks
	// it dead on the connection drop, and the membership layer
	// re-spreads its shards over the survivors. Every replica holds
	// identical bits, so answers must not change.
	c.ts[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for c.topo.IsLive(1) {
		if time.Now().After(deadline) {
			t.Fatal("peer death never reached the membership layer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err = assigner.AssignBatch("m", q)
	if err != nil {
		t.Fatalf("assign after peer death: %v", err)
	}
	requireAnswerParity[T](t, want, got, "after peer kill")
}

func TestClusterServeParity64(t *testing.T) { clusterParity[float64](t) }
func TestClusterServeParity32(t *testing.T) { clusterParity[float32](t) }

// TestClusterRepublish: a second publish (different k, so the layout
// rebalances and stale shard copies drop from peers) keeps parity on
// the real cluster.
func TestClusterRepublish(t *testing.T) {
	cents1, queries := parityCase(12, 6, 32, 7)
	cents2, _ := parityCase(5, 6, 1, 8)
	c := startServeCluster(t, 3, 2)
	for _, cents := range []*matrix.Dense{cents1, cents2} {
		if _, err := c.reg.Publish("m", cents); err != nil {
			t.Fatal(err)
		}
	}
	oracle := serve.NewBatcherOf[float64](c.reg, serve.BatcherOptions{})
	defer oracle.Close()
	assigner := NewAssignerOf[float64](c.sr, serve.BatcherOptions{})
	defer assigner.Close()
	want, err := oracle.AssignBatch("m", queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := assigner.AssignBatch("m", queries)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswerParity[float64](t, want, got, "after republish")
	if got[0].Version != 2 {
		t.Fatalf("expected version 2 answers, got %d", got[0].Version)
	}
}

// TestClusterPulseLiveness: worker heartbeats keep peers live, and an
// API kill (down switch) silences a peer's pulses so the sweep retires
// it without the socket dropping.
func TestClusterPulseLiveness(t *testing.T) {
	c := startServeCluster(t, 3, 2)
	// All peers pulse within the first timeout window.
	time.Sleep(200 * time.Millisecond)
	for m := 0; m < 3; m++ {
		if !c.topo.IsLive(m) {
			t.Fatalf("machine %d not live under healthy pulses", m)
		}
	}
	// Down switch: pulses from rank 2 are ignored, the sweep kills it.
	c.sr.Kill(2)
	deadline := time.Now().Add(10 * time.Second)
	for c.topo.IsLive(2) {
		if time.Now().After(deadline) {
			t.Fatal("killed machine still live after pulse timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Revive: pulses resume and recovery propagates.
	c.sr.Revive(2)
	deadline = time.Now().Add(10 * time.Second)
	for !c.topo.IsLive(2) {
		if time.Now().After(deadline) {
			t.Fatal("revived machine never recovered")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssignRespCodec round-trips the RPC response payload, both arms.
func TestAssignRespCodec(t *testing.T) {
	in := []serve.Assignment{
		{Cluster: 3, SqDist: 1.25, Version: 7},
		{Cluster: 0, SqDist: 0, Version: 7},
		{Cluster: 11, SqDist: math.Pi, Version: 8},
	}
	out, err := decodeAssignResp(encodeAssignResp(in, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("row %d: %+v != %+v", i, out[i], in[i])
		}
	}
	if _, err := decodeAssignResp(encodeAssignResp(nil, errAssign)); err == nil || err.Error() != "shardserve: peer: boom" {
		t.Fatalf("error arm round-trip: %v", err)
	}
}

var errAssign = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }
