package main

import "fmt"

// trainShape sizes the knori and knors runs of a workload. Both engines
// train on the same NaturalClusters data with the same config: k-means
// with MTI pruning and Forgy initialisation on trainThreads threads for
// Iters iterations (the data does not converge earlier).
type trainShape struct {
	N, D, K, Iters int
	// CacheBytes sizes knors' page cache and its row cache, each.
	CacheBytes int
}

// serveShape sizes one knorserve deployment of a workload: the model it
// trains at set-up and the /v1/assign traffic. A cluster deployment
// also takes the write stream.
type serveShape struct {
	K, D      int
	SpecN     int // training rows the server generates for the model
	SpecIters int
	Rows      int     // query rows per /v1/assign request
	Low, High float64 // offered /v1/assign rates of the two phases, req/s
	Cluster   bool    // coordinator + one worker process instead of one process
}

// workloadDef is one traffic mix: the benchmark runs knori, knors, one
// single-process knorserve and one two-process knorserve cluster on it.
type workloadDef struct {
	Name    string
	Train   trainShape
	Single  serveShape
	Cluster serveShape
}

const (
	trainThreads  = 2    // nproc of the box the rates were sized on
	mixSpread     = 0.05 // NaturalClusters component spread, every data set
	mixClusters   = 10   // NaturalClusters components, every data set
	icache        = 5    // knors row-cache refresh interval
	prefetchers   = 2    // knors prefetch workers
	serveMaxBatch = 1024 // knorserve's default -batch, the flush-fill base
	requestLimit  = 2    // seconds before a request counts as failed

	// The write stream a cluster deployment takes alongside /v1/assign.
	writeRate  = 10 // /v1/observe requests per second
	writeRows  = 64 // rows per /v1/observe
	publishPer = 5  // a /v1/publish after every this many observes
)

// workloads are frozen: changing a size or a rate is a benchmark change
// of its own, after which the baseline is measured again.
var workloads = []workloadDef{
	{
		// Small queries against a small model: the HTTP/JSON edge and the
		// batcher's flush wait dominate /v1/assign. knors' working set is
		// 8x its caches, so the store reads most rows from the file.
		Name:  "d16",
		Train: trainShape{N: 50_000, D: 16, K: 100, Iters: 20, CacheBytes: 50_000 * 16 * 8 / 8},
		Single: serveShape{K: 100, D: 16, SpecN: 2_000, SpecIters: 5, Rows: 4,
			Low: 300, High: 1000},
		Cluster: serveShape{K: 100, D: 16, SpecN: 2_000, SpecIters: 5, Rows: 4,
			Low: 100, High: 300, Cluster: true},
	},
	{
		// Large queries against a large model: GEMM, the shard fan-out
		// RPC and the min-reduce dominate /v1/assign. knors' caches hold
		// the whole data set, so after the first pass the store serves
		// from memory: an I/O change moves knors here less than on d16.
		Name:  "d32",
		Train: trainShape{N: 25_000, D: 32, K: 100, Iters: 20, CacheBytes: 25_000 * 32 * 8},
		Single: serveShape{K: 1000, D: 32, SpecN: 2_000, SpecIters: 2, Rows: 64,
			Low: 50, High: 150},
		Cluster: serveShape{K: 1000, D: 32, SpecN: 2_000, SpecIters: 2, Rows: 64,
			Low: 50, High: 150, Cluster: true},
	},
}

// toy shrinks a workload until a full run takes a few seconds; the
// harness test uses it so the code path stays exercised.
func (w workloadDef) toy() workloadDef {
	w.Train.N, w.Train.Iters = 3000, 5
	w.Train.CacheBytes = w.Train.N * w.Train.D * 8 / 8
	for _, s := range []*serveShape{&w.Single, &w.Cluster} {
		s.SpecN, s.SpecIters = 1000, 2
		s.Low, s.High = 150, 250
	}
	return w
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
