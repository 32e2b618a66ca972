// Command knorserve exposes the online clustering service layer
// (internal/serve) over HTTP/JSON: a model registry fed by any trainer,
// a batched GEMM assignment path, and stream updaters that keep models
// learning while they serve.
//
// Endpoints:
//
//	GET  /healthz            liveness (the process is up)
//	GET  /readyz             readiness (models published, state writable, not draining)
//	GET  /metrics            Prometheus text exposition of every layer's telemetry
//	GET  /metrics/cluster    federated exposition: every rank's series under rank="N"
//	GET  /v1/cluster/stats   per-rank latency quantiles, bytes, in-flight, shard copies
//	GET  /debug/traces       recent sampled /assign request traces (see -trace-sample)
//	GET  /debug/events       structured cluster event journal (?since=SEQ&max=N cursor)
//	GET  /debug/pprof/       net/http/pprof profiling endpoints (only with -pprof)
//	GET  /v1/models          list models (name, version, k, d, node)
//	POST /v1/models          train & register: {"name","k",("spec"|"rows"),...}
//	POST /v1/assign          {"model","rows":[[...],...]} -> clusters + sqdists
//	POST /v1/observe         fold rows into a model's stream updater
//	POST /v1/publish         snapshot a stream updater into a new version
//	GET  /v1/stats           batcher counters and p50/p95/p99 latency
//
// Usage:
//
//	knorserve -addr :8080
//	knorserve -addr :8080 -precision 32
//	knorserve -addr :8080 -machines 4 -quota 256 -state /var/lib/knor
//	knorserve -loadtest -lt-n 1000000 -lt-d 16 -lt-k 100
//
// -precision 32 runs the batched assignment path in float32 against the
// registry's precomputed float32 centroid mirrors: half the memory
// traffic per flush, answers within the relative-error bounds
// documented in EXPERIMENTS.md. Training and the registry's canonical
// centroids stay float64.
//
// -quantize int8 (requires -precision 32) scans all centroids with a
// per-row symmetric int8 quantization and an int8×int8→int32 SIMD
// kernel, keeps the candidates whose error interval could contain the
// minimum, and re-ranks just those exactly in float32 — answers stay
// bit-identical to the plain -precision 32 path (DESIGN.md has the
// error bound); rows whose candidate set exceeds the re-rank cap fall
// back to a full exact scan, counted in
// knor_serve_quant_rerank_fallbacks_total.
//
// -machines M shards every model's centroids across M simulated
// machines (internal/shardserve): /assign batches fan out, each
// machine computes distances against only its shard, and the per-shard
// argmins merge with lowest-global-index tie-breaking — bit-identical
// answers to -machines 1 at either precision.
//
// -replicas R places every shard group on R distinct machines. The
// fan-out asks the preferred replica first and fails over to the
// others, so up to R-1 machine deaths stay invisible to clients
// (answers remain bit-identical — every replica holds the same rows at
// the same version). A membership layer (internal/topology) detects
// dead and recovered machines from health pulses and re-spreads shard
// replicas from the canonical copies, healing the layout while the
// cluster keeps serving. /readyz reports "degraded" (some replicas
// down, still serving, HTTP 200) and "unavailable" (a whole group
// dead: its centroid range answers 503 until a machine recovers)
// with the affected shard groups in the body. /v1/machines inspects
// the cluster and injects faults:
//
//	GET  /v1/machines        per-machine liveness + shard group health
//	POST /v1/machines        {"machine":M,"action":"kill"|"revive"}
//
// -listen/-join turn the simulated machines into real OS processes
// over internal/netcluster TCP: the coordinator (-listen, with
// -machines M and the HTTP API) pushes shard replicas to M-1 worker
// processes (-join host:port, no HTTP), fans /assign batches out as
// transport RPCs, and tracks worker liveness from heartbeat pulses —
// kill -9 a worker and the fan-out fails over to surviving replicas
// with byte-identical answers (make cluster-smoke drives exactly
// that):
//
//	knorserve -addr :8080 -listen 127.0.0.1:7002 -machines 3 -replicas 2 -threads 1
//	knorserve -join 127.0.0.1:7002 -threads 1     (run M-1 times)
//
// -quota N bounds in-flight /assign requests per model; excess
// requests are answered 429 with a Retry-After hint instead of growing
// the batch queue without bound.
//
// -state DIR persists every model's latest snapshot (name, version,
// centroids) on publish and shutdown, and reloads the registry on the
// next boot, so a restarted server serves its models immediately and
// version numbers never move backwards.
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// stops accepting, every in-flight request (including /assign rows
// waiting on a batch flush) is answered, then the process exits.
//
// The -loadtest mode boots the server on a loopback listener, registers
// a model trained on an N×D dataset, then hammers /assign over HTTP
// with concurrent clients and reports sustained requests/sec and
// latency quantiles (the EXPERIMENTS.md serving row).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"knor/internal/cliutil"
	"knor/internal/kmeans"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/shardserve"
	"knor/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxBatch     = flag.Int("batch", 1024, "max rows per blocked assignment flush")
		threads      = flag.Int("threads", 0, "GEMM threads (0 = GOMAXPROCS)")
		nodes        = flag.Int("nodes", 4, "simulated NUMA nodes to pin model shards across")
		machines     = flag.Int("machines", 1, "shard each model's centroids across this many simulated machines (1 = single-node assigner)")
		replicas     = flag.Int("replicas", 1, "replicas per shard group: /assign fails over across them, so replicas-1 machine deaths stay invisible (needs -machines > 1)")
		quota        = flag.Int("quota", 0, "max in-flight /assign requests per model; excess answered 429 (0 = unlimited)")
		stateDir     = flag.String("state", "", "directory for model snapshot persistence; reloaded on restart (empty = none)")
		publishEvery = flag.Int("publish-every", 4096, "auto-publish a stream model every N observed rows (0 = manual)")
		precision    = flag.String("precision", "64", "assign-path element type: 32 | 64")
		quantize     = flag.String("quantize", "", "int8: serve /assign via the quantized centroid scan + exact re-rank (requires -precision 32; answers stay bit-identical)")
		retainVers   = flag.Int("retain-versions", 0, "retained model versions per name (0 = default 8)")
		retainAge    = flag.Duration("retain-age", 0, "evict unpinned versions older than this (0 = no age bound)")
		drainWait    = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests on shutdown")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceEvery   = flag.Int("trace-sample", 1000, "sample one /assign request in every N for /debug/traces (0 = off)")
		accessLog    = flag.Bool("access-log", false, "log one line per HTTP request (with request IDs) to stderr")
		telemetryOn  = flag.Bool("telemetry", true, "record latency histograms and traces (counters/gauges stay on regardless)")
		eventsLog    = flag.Bool("events-log", false, "mirror the structured cluster event journal (/debug/events) to stderr")

		loadtest  = flag.Bool("loadtest", false, "run the self-contained /assign load test and exit")
		ltN       = flag.Int("lt-n", 1_000_000, "loadtest: training rows")
		ltD       = flag.Int("lt-d", 16, "loadtest: dimensions")
		ltK       = flag.Int("lt-k", 100, "loadtest: clusters")
		ltClients = flag.Int("lt-clients", 64, "loadtest: concurrent HTTP clients")
		ltReqs    = flag.Int("lt-requests", 50_000, "loadtest: total /assign requests")
		ltRows    = flag.Int("lt-rows", 4, "loadtest: query rows per request")
		ltSeed    = flag.Int64("lt-seed", 1, "loadtest: dataset/query seed")
	)
	var cluster cliutil.ClusterFlags
	cluster.Register(flag.CommandLine)
	flag.Parse()
	if *threads <= 0 {
		*threads = runtime.GOMAXPROCS(0)
	}
	prec, err := cliutil.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knorserve:", err)
		os.Exit(2)
	}
	switch *quantize {
	case "":
	case "int8":
		if prec != kmeans.Precision32 {
			fmt.Fprintln(os.Stderr, "knorserve: -quantize int8 requires -precision 32")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "knorserve: unknown -quantize %q (want int8)\n", *quantize)
		os.Exit(2)
	}
	telemetry.SetEnabled(*telemetryOn)
	if *eventsLog {
		telemetry.DefaultJournal.SetMirror(os.Stderr)
	}
	role, err := cluster.Validate(*machines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knorserve:", err)
		os.Exit(2)
	}
	digest := "knorserve:p=" + prec.String()
	if role == cliutil.RoleWorker {
		// Worker process: join the coordinator, serve pushed shards and
		// answer assign RPCs until the coordinator goes away. No HTTP.
		tr, err := netcluster.DialCluster(netcluster.TCPOptions{
			Listen: cluster.Listen, Join: cluster.Join, Digest: digest,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "knorserve:", err)
			os.Exit(1)
		}
		fmt.Printf("knorserve worker rank %d/%d serving (coordinator %s)\n",
			tr.Rank(), tr.Size(), cluster.Join)
		err = shardserve.ServePeer(tr, shardserve.PeerOptions{
			Batcher: serve.BatcherOptions{MaxBatch: *maxBatch, Threads: *threads},
		})
		tr.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "knorserve:", err)
			os.Exit(1)
		}
		fmt.Println("knorserve worker: coordinator closed, bye")
		return
	}
	var transport netcluster.Transport
	if role == cliutil.RoleCoordinator {
		fmt.Printf("knorserve coordinator on %s waiting for %d workers...\n", cluster.Listen, *machines-1)
		tr, err := netcluster.DialCluster(netcluster.TCPOptions{
			Listen: cluster.Listen, Machines: *machines, Digest: digest,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "knorserve:", err)
			os.Exit(1)
		}
		transport = tr
		fmt.Printf("knorserve cluster bootstrapped: %d processes\n", tr.Size())
	}
	srv, err := newServer(serverOptions{
		transport: transport,
		maxBatch:  *maxBatch, threads: *threads,
		nodes: *nodes, machines: *machines, replicas: *replicas, quota: *quota, stateDir: *stateDir,
		publishEvery: *publishEvery, precision: prec, quantize: *quantize,
		retainVersions: *retainVers, retainAge: *retainAge,
		pprof: *pprofOn, traceEvery: *traceEvery, accessLog: *accessLog,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "knorserve:", err)
		os.Exit(1)
	}

	if *loadtest {
		defer srv.close()
		err := runLoadTest(srv, loadTestOptions{
			n: *ltN, d: *ltD, k: *ltK,
			clients: *ltClients, requests: *ltReqs, rowsPerReq: *ltRows, seed: *ltSeed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "knorserve:", err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knorserve:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mode := prec.String()
	if *quantize != "" {
		mode += "+" + *quantize
	}
	fmt.Printf("knorserve listening on %s (batch=%d threads=%d precision=%s machines=%d replicas=%d)\n",
		ln.Addr(), *maxBatch, *threads, mode, *machines, *replicas)
	if err := serveUntil(ctx, ln, srv, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "knorserve:", err)
		os.Exit(1)
	}
	fmt.Println("knorserve: drained, bye")
}
