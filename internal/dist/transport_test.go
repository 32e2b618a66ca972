package dist

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"knor/internal/cluster"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/numa"
	"knor/internal/sched"
	"knor/internal/simclock"
)

// parityCfg pins Threads to 1: with multiple threads, rows land in
// whichever thread's accumulator claimed their task, so the low bits
// of the float sums vary run to run. One thread per machine makes
// every path bit-deterministic, which is what the sim-vs-real parity
// acceptance compares. (Assignments and iteration counts are
// deterministic at any thread count; only sum bits are not.)
func parityCfg(k int) kmeans.Config {
	return kmeans.Config{
		K: k, MaxIters: 40, Init: kmeans.InitForgy, Seed: 5,
		Threads: 1, TaskSize: 64,
		Topo: numa.Topology{Nodes: 2, CoresPerNode: 4}, Sched: sched.NUMAAware,
	}
}

// runRanks drives RunTransport on every rank concurrently and returns
// the per-rank results.
func runRanks(t *testing.T, ts []netcluster.Transport, data *matrix.Dense, cfg Config, p kmeans.Precision) []*kmeans.Result {
	t.Helper()
	out := make([]*kmeans.Result, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for r, tr := range ts {
		wg.Add(1)
		go func(r int, tr netcluster.Transport) {
			defer wg.Done()
			out[r], errs[r] = RunTransport(tr, data, cfg, p)
		}(r, tr)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

// simTransports builds an M-rank simulated transport group.
func simTransports(t *testing.T, m int) []netcluster.Transport {
	t.Helper()
	g := netcluster.NewSimGroup(cluster.New(m, simclock.DefaultCostModel()))
	t.Cleanup(func() { g.Close() })
	ts := make([]netcluster.Transport, m)
	for r := 0; r < m; r++ {
		ts[r] = g.Transport(r)
	}
	return ts
}

// tcpTransports bootstraps an M-rank real-socket mesh on loopback,
// in-process (the OS-process variant is exercised by cluster-smoke).
func tcpTransports(t *testing.T, m int) []netcluster.Transport {
	t.Helper()
	ts := make([]netcluster.Transport, m)
	errs := make([]error, m)
	ln, err := netcluster.ListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := ln.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := netcluster.TCPOptions{
				Listen: "127.0.0.1:0", Join: coordAddr, Digest: "dist-test",
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
			ts[tr.Rank()] = tr
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

// requireBitIdentical asserts two results agree to the last bit on
// everything the cluster acceptance compares: centroids, assignments,
// sizes, SSE, iteration count.
func requireBitIdentical(t *testing.T, want, got *kmeans.Result, label string) {
	t.Helper()
	if got.Iters != want.Iters || got.Converged != want.Converged {
		t.Fatalf("%s: iters/converged %d/%v vs %d/%v", label, got.Iters, got.Converged, want.Iters, want.Converged)
	}
	for i := range want.Centroids.Data {
		if math.Float64bits(want.Centroids.Data[i]) != math.Float64bits(got.Centroids.Data[i]) {
			t.Fatalf("%s: centroid element %d differs in bits: %x vs %x",
				label, i, got.Centroids.Data[i], want.Centroids.Data[i])
		}
	}
	if len(want.Assign) != len(got.Assign) {
		t.Fatalf("%s: assign length %d vs %d", label, len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: row %d assigned %d vs %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
	if math.Float64bits(want.SSE) != math.Float64bits(got.SSE) {
		t.Fatalf("%s: SSE bits differ: %.17g vs %.17g", label, got.SSE, want.SSE)
	}
}

// TestTransportParity is the tentpole acceptance in test form: at both
// precisions and several cluster sizes, the transport runner over real
// TCP sockets is bit-identical to the same runner over the simulated
// transport, and (at float64) to the legacy simulated dist.Run path.
func TestTransportParity(t *testing.T) {
	data := testData(900, 6, 5, 21)
	for _, m := range []int{1, 2, 3} {
		cfg := Config{Machines: m, Mode: ModeKnord, Kmeans: parityCfg(5)}
		for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
			sim := runRanks(t, simTransports(t, m), data, cfg, p)
			tcp := runRanks(t, tcpTransports(t, m), data, cfg, p)
			label := "m=" + p.String()
			requireBitIdentical(t, sim[0], tcp[0], label+" tcp-vs-simgroup")
			// Every rank agrees on centroids/iters; only rank 0 carries
			// the gathered assignments.
			for r := 1; r < m; r++ {
				if tcp[r].Iters != tcp[0].Iters || tcp[r].Converged != tcp[0].Converged {
					t.Fatalf("%s: rank %d verdict diverged", label, r)
				}
				for i := range tcp[0].Centroids.Data {
					if math.Float64bits(tcp[r].Centroids.Data[i]) != math.Float64bits(tcp[0].Centroids.Data[i]) {
						t.Fatalf("%s: rank %d centroids diverged", label, r)
					}
				}
			}
			if p == kmeans.Precision64 {
				legacy, err := Run(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, legacy, tcp[0], label+" tcp-vs-legacy-sim")
			}
		}
	}
}

// TestTransportParitySpherical: the spherical (normalise-rows) variant
// keeps the same sim-vs-real bit identity — the engines normalise
// their own raw shards on every path.
func TestTransportParitySpherical(t *testing.T) {
	data := testData(600, 8, 4, 31)
	kcfg := parityCfg(4)
	kcfg.Spherical = true
	cfg := Config{Machines: 3, Mode: ModeKnord, Kmeans: kcfg}
	for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
		sim := runRanks(t, simTransports(t, 3), data, cfg, p)
		tcp := runRanks(t, tcpTransports(t, 3), data, cfg, p)
		requireBitIdentical(t, sim[0], tcp[0], "spherical p="+p.String())
		if p == kmeans.Precision64 {
			legacy, err := Run(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, legacy, tcp[0], "spherical legacy p=64")
		}
	}
}

// TestTransportMatchesSingleEngine: a one-rank transport run is the
// single-process engine at both precisions, bit for bit.
func TestTransportMatchesSingleEngine(t *testing.T) {
	data := testData(700, 6, 4, 41)
	cfg := Config{Machines: 1, Mode: ModeKnord, Kmeans: parityCfg(4)}
	for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
		single, err := kmeans.RunPrecision(data, cfg.Kmeans, p)
		if err != nil {
			t.Fatal(err)
		}
		got := runRanks(t, simTransports(t, 1), data, cfg, p)
		requireBitIdentical(t, single, got[0], "single p="+p.String())
	}
}

// TestTransportOracleTolerance: across machine counts the transport
// runner stays within accumulation-order tolerance of the serial
// oracle (bit identity across DIFFERENT machine counts is impossible
// for float sums; this bounds the drift).
func TestTransportOracleTolerance(t *testing.T) {
	data := testData(900, 6, 5, 21)
	serial, err := kmeans.RunSerial(data, parityCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 3} {
		cfg := Config{Machines: m, Mode: ModeKnord, Kmeans: parityCfg(5)}
		got := runRanks(t, simTransports(t, m), data, cfg, kmeans.Precision64)
		requireOracleMatch(t, serial, got[0], "transport m>1")
	}
}

// TestTransportRejectsMismatch: config errors surface as errors, not
// hangs or garbage.
func TestTransportRejectsMismatch(t *testing.T) {
	data := testData(100, 4, 2, 7)
	ts := simTransports(t, 2)
	cfg := Config{Machines: 3, Mode: ModeKnord, Kmeans: parityCfg(2)}
	if _, err := RunTransport(ts[0], data, cfg, kmeans.Precision64); err == nil {
		t.Fatal("machine-count mismatch should error")
	}
}

// TestTransportSimulatedTimeParity: every rank charges the same
// modelled collectives whatever transport carries the frames, so a run
// over real TCP sockets, one over a SimGroup and the in-process
// RunPrecision all report the same simulated time, bit for bit, in
// every mode and at both precisions.
func TestTransportSimulatedTimeParity(t *testing.T) {
	data := testData(900, 6, 5, 21)
	for _, mode := range []Mode{ModeKnord, ModeMPI, ModeMLlib} {
		for _, m := range []int{2, 3} {
			cfg := Config{Machines: m, Mode: mode, Kmeans: parityCfg(5), MLlibTaskOverhead: 1e-5}
			for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
				want, err := RunPrecision(data, cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v m=%d p=%v", mode, m, p)
				for name, ts := range map[string][]netcluster.Transport{
					"tcp": tcpTransports(t, m), "simgroup": simTransports(t, m),
				} {
					got := runRanks(t, ts, data, cfg, p)[0]
					requireBitIdentical(t, want, got, label+" "+name)
					if math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) {
						t.Fatalf("%s %s: SimSeconds %g, RunPrecision %g", label, name, got.SimSeconds, want.SimSeconds)
					}
					for i := range want.PerIter {
						if math.Float64bits(got.PerIter[i].SimSeconds) != math.Float64bits(want.PerIter[i].SimSeconds) {
							t.Fatalf("%s %s: iteration %d SimSeconds %g, RunPrecision %g",
								label, name, i, got.PerIter[i].SimSeconds, want.PerIter[i].SimSeconds)
						}
					}
					if got.MemoryBytes != want.MemoryBytes {
						t.Fatalf("%s %s: MemoryBytes %d, RunPrecision %d", label, name, got.MemoryBytes, want.MemoryBytes)
					}
				}
			}
		}
	}
}

// TestRunFailingRankDoesNotHang: 50 rows over 24 machines leaves ranks
// 0-1 with 3 rows (enough for k=3) and every later rank with 2. Ranks
// 0-1 build their engines and wait in the first allgather; the run
// must still return promptly, with a failing machine's own error
// rather than the closed transport's echo.
func TestRunFailingRankDoesNotHang(t *testing.T) {
	data := testData(50, 4, 3, 19)
	done := make(chan error, 1)
	go func() {
		_, err := Run(data, Config{Machines: 24, Kmeans: parityCfg(3)})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("no error")
		}
		if !strings.Contains(err.Error(), "machine 2 ") || errors.Is(err, netcluster.ErrClosed) {
			t.Fatalf("error %q does not name the first failing machine", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run hung after a rank failed")
	}
}

// TestRunGathersInChunks: assignments too large for one frame gather in
// several rounds, with the same result as a single round.
func TestRunGathersInChunks(t *testing.T) {
	data := testData(400, 4, 3, 9)
	cfg := Config{Machines: 3, Mode: ModeKnord, Kmeans: parityCfg(3)}
	oneRound := gatherRows
	defer func() { gatherRows = oneRound }()
	for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
		want, err := RunPrecision(data, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		gatherRows = 7 // 20 rounds for the largest shard's 134 rows
		got, err := RunPrecision(data, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		gatherRows = oneRound
		requireBitIdentical(t, want, got, "chunked p="+p.String())
		if got.SimSeconds != want.SimSeconds {
			t.Fatalf("p=%v: chunked SimSeconds %g, one round %g", p, got.SimSeconds, want.SimSeconds)
		}
	}
}
