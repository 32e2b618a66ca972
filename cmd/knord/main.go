// Command knord runs the distributed k-means module: decentralised
// per-machine drivers (each a full NUMA-aware knori engine) merged
// with MPI-style allreduce, plus the pure-MPI and MLlib-style
// comparison modes of Section 8.9.
//
// Usage:
//
//	knord -machines 8 -threads 18 -k 10 -data rm1b.knor
//	knord -machines 4 -mode mllib -gen-n 500000 -gen-d 32
//
// By default the M machines are simulated inside one process: M ranks
// of the same runner over an in-process transport. With -listen/-join
// the same computation runs as M real OS processes over
// internal/netcluster TCP:
//
//	knord -listen 127.0.0.1:7001 -machines 3 -threads 1 -k 8   # coordinator, rank 0
//	knord -join 127.0.0.1:7001 -threads 1 -k 8                 # each worker (run M-1 times)
//
// Every process must be started with the identical algorithm flags —
// the bootstrap handshake carries a config digest and refuses mixed
// clusters. Rank 0 prints the result plus a `checksum:` line (FNV-1a
// over centroid bits, assignments, SSE bits and the iteration count);
// single-process runs print the same line, and with -threads 1 the
// checksums match bit for bit between single-process and TCP runs of
// the same machine count (see DESIGN.md §Transport for why the thread
// and machine counts pin the floating-point fold order). Both report
// the same simulated time: every rank charges the same modelled
// collectives.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"

	"knor"
	"knor/internal/cliutil"
	"knor/internal/dist"
	"knor/internal/netcluster"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "input matrix file (empty: generate)")
		genN      = flag.Int("gen-n", 500000, "rows to generate when -data is empty")
		genD      = flag.Int("gen-d", 32, "dims to generate when -data is empty")
		genSeed   = flag.Int64("gen-seed", 1, "generator seed")
		machines  = flag.Int("machines", 4, "cluster size")
		mode      = flag.String("mode", "knord", "mode: knord | mpi | mllib")
		k         = flag.Int("k", 10, "clusters")
		iters     = flag.Int("iters", 100, "max iterations")
		threads   = flag.Int("threads", 18, "threads per machine")
		taskSize  = flag.Int("tasksize", 8192, "rows per task")
		prune     = flag.String("prune", "mti", "pruning: none | mti | ti (knord/mpi)")
		initM     = flag.String("init", "forgy", "init: forgy | random | kmeans++")
		nodes     = flag.Int("nodes", 2, "NUMA nodes per machine")
		cores     = flag.Int("cores", 9, "cores per NUMA node")
		seed      = flag.Int64("seed", 1, "algorithm seed")
		precision = flag.String("precision", "64", "element type: 32 | 64")
		verbose   = flag.Bool("v", false, "print per-iteration stats")
	)
	var clusterf cliutil.ClusterFlags
	clusterf.Register(flag.CommandLine)
	flag.Parse()

	var data *knor.Matrix
	var err error
	if *dataPath != "" {
		data, err = knor.LoadMatrix(*dataPath)
	} else {
		data = knor.Generate(knor.Spec{
			Kind: knor.NaturalClusters, N: *genN, D: *genD, Clusters: 10, Spread: 0.05, Seed: *genSeed,
		})
	}
	if err != nil {
		fatal(err)
	}

	kcfg := knor.Config{
		K: *k, MaxIters: *iters, Seed: *seed,
		Threads: *threads, TaskSize: *taskSize,
		Topo: knor.Topology{Nodes: *nodes, CoresPerNode: *cores},
	}
	if kcfg.Prune, err = cliutil.ParsePrune(*prune); err != nil {
		fatal(err)
	}
	if kcfg.Init, err = cliutil.ParseInit(*initM); err != nil {
		fatal(err)
	}
	cfg := knor.DistConfig{Machines: *machines, Kmeans: kcfg}
	switch strings.ToLower(*mode) {
	case "knord", "":
		cfg.Mode = knor.ModeKnord
	case "mpi":
		cfg.Mode = knor.ModeMPI
	case "mllib":
		cfg.Mode = knor.ModeMLlib
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	prec, err := cliutil.ParsePrecision(*precision)
	if err != nil {
		fatal(err)
	}
	role, err := clusterf.Validate(*machines)
	if err != nil {
		fatal(err)
	}

	// The digest covers every flag that changes the computation, so the
	// bootstrap handshake rejects a cluster whose processes were started
	// with different algorithm configs. The machine count is NOT in it:
	// the coordinator's -machines fixes the cluster size and workers
	// learn theirs from the assigned-rank reply.
	dataID := *dataPath
	if dataID == "" {
		dataID = fmt.Sprintf("gen:%d:%d:%d", *genN, *genD, *genSeed)
	}
	digest := fmt.Sprintf("knord:mode=%s k=%d it=%d seed=%d th=%d ts=%d prune=%s init=%s nodes=%d cores=%d p=%s data=%s",
		cfg.Mode, *k, *iters, *seed, *threads, *taskSize, strings.ToLower(*prune), strings.ToLower(*initM),
		*nodes, *cores, prec, dataID)

	var res *knor.Result
	switch role {
	case cliutil.RoleWorker:
		tr, err := netcluster.DialCluster(netcluster.TCPOptions{
			Listen: clusterf.Listen, Join: clusterf.Join, Digest: digest,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("knord worker rank %d/%d computing (coordinator %s)\n", tr.Rank(), tr.Size(), clusterf.Join)
		cfg.Machines = tr.Size()
		res, err = dist.RunTransport(tr, data, cfg, prec)
		tr.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("knord worker rank done: %d iterations (converged=%v)\n", res.Iters, res.Converged)
		return
	case cliutil.RoleCoordinator:
		fmt.Printf("knord coordinator on %s waiting for %d workers...\n", clusterf.Listen, *machines-1)
		tr, err := netcluster.DialCluster(netcluster.TCPOptions{
			Listen: clusterf.Listen, Machines: *machines, Digest: digest,
		})
		if err != nil {
			fatal(err)
		}
		res, err = dist.RunTransport(tr, data, cfg, prec)
		tr.Close()
		if err != nil {
			fatal(err)
		}
	default: // solo: one process, M simulated machines
		res, err = dist.RunPrecision(data, cfg, prec)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("mode:           %s on %d machines x %d threads (%s, precision %s)\n",
		*mode, cfg.Machines, *threads, role, prec)
	fmt.Printf("iterations:     %d (converged=%v)\n", res.Iters, res.Converged)
	fmt.Printf("SSE:            %.6g\n", res.SSE)
	fmt.Printf("simulated time: %.4fs (%.4fs/iter)\n", res.SimSeconds, res.SimSeconds/float64(res.Iters))
	fmt.Printf("memory (aggregate): %.1f MB\n", float64(res.MemoryBytes)/1e6)
	fmt.Printf("checksum:       %016x\n", resultChecksum(res))
	if *verbose {
		fmt.Println("iter  time(ms)   dists      C1        changed")
		for _, st := range res.PerIter {
			fmt.Printf("%4d  %8.3f  %9d  %8d  %7d\n",
				st.Iter, st.SimSeconds*1e3, st.DistCalcs, st.PrunedC1, st.RowsChanged)
		}
	}
}

// resultChecksum folds everything the cluster acceptance compares —
// iteration count, centroid bits, assignments, SSE bits — into one
// FNV-1a value, so "bit-identical results" across single-process and
// multi-process TCP runs is a one-line string comparison in smoke
// scripts. Meaningful on rank 0 only (workers do not hold the gathered
// assignments).
func resultChecksum(res *knor.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.BigEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(res.Iters))
	for _, v := range res.Centroids.Data {
		put(math.Float64bits(v))
	}
	for _, a := range res.Assign {
		put(uint64(uint32(a)))
	}
	put(math.Float64bits(res.SSE))
	return h.Sum64()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "knord:", err)
	os.Exit(1)
}
