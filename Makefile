GO ?= go

.PHONY: all build vet test race bench bench-precision bench-kernels test-noasm fuzz-smoke figs docs serve-loadtest io-smoke shardserve-smoke metrics-smoke chaos-smoke cluster-smoke bench-harness clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent subsystems (mirrors CI).
race:
	$(GO) test -race ./internal/blas/... ./internal/serve/... ./internal/kmeans/... ./cmd/knorserve/... \
		./internal/store/... ./internal/sem/... ./internal/telemetry/... \
		./internal/shardserve/... ./internal/cluster/... ./internal/topology/... \
		./internal/netcluster/... ./internal/dist/... ./internal/cliutil/...

# Headline benchmarks: one representative configuration per paper
# artifact (Tables 1-3, Figures 4-13, ablations).
bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# The float32 vs float64 kernel/serving pair behind EXPERIMENTS.md's
# precision section.
bench-precision:
	$(GO) test -run=NONE -bench='Gemm32vs64' -benchtime=5x ./internal/blas
	$(GO) test -run=NONE -bench='ServeAssign' -benchtime=20x ./internal/serve

# EXPERIMENTS.md's Kernels table: SIMD vs pure-Go GEMM GFLOP/s at both
# element widths, the row-distance kernel's ns per distance and the
# serving flush's µs by both paths at both widths, with the machine-readable
# report (including the float32 asm/go speedup on the acceptance shape)
# in BENCH_kernels.json.
bench-kernels:
	$(GO) run ./cmd/knorbench -exp kernels -json BENCH_kernels.json

# The parity suite against the pure-Go reference kernels (mirrors CI):
# the same tests that gate the assembly path must pass with it compiled
# out. Training's dense scans dispatch to the row-distance kernel, so
# the training engines and their goldens run here too.
test-noasm:
	$(GO) test -tags noasm ./internal/blas/... ./internal/serve/... ./internal/shardserve/... \
		./internal/kmeans/... ./internal/sem/... ./internal/dist/...

# 10 s coverage-guided runs of the fuzz targets (mirrors CI; `go test`
# alone only replays their seeds): the /v1/assign body decoder against
# encoding/json, the /v1/assign handler's status codes on a single node
# and on a sharded coordinator, the JSON number scanner against
# strconv.ParseFloat, the netcluster frame codec, the worker's shard-push,
# assign-request and assign-reply decoders, the SIMD GEMM and
# row-distance kernels against the pure-Go loops, the block-free
# flush at both precisions against Dgemm + scan, the store's
# recycled page buffers against the source rows, the knors row cache
# against a map per partition, the streamed state file against
# json.Marshal, the state file's float arrays against
# encoding/json's []float64, and the /metrics and /metrics/cluster
# writer against a strict text-format checker. Minimizing a new input
# may take 60 s by default, which stalls a 10 s run on a large seed
# (the d32 assign body), so each minimization gets 100 executions; a
# failing input is still reported, only less minimized.
FUZZ = -run '^$$' -fuzztime 10s -fuzzminimizetime 100x
fuzz-smoke:
	$(GO) test $(FUZZ) -fuzz '^FuzzAssignBody$$' ./cmd/knorserve
	$(GO) test $(FUZZ) -fuzz '^FuzzAssignHandler$$' ./cmd/knorserve
	$(GO) test $(FUZZ) -fuzz '^FuzzScan$$' ./internal/jsonfloat
	$(GO) test $(FUZZ) -fuzz '^FuzzReadFrame$$' ./internal/netcluster
	$(GO) test $(FUZZ) -fuzz '^FuzzPeerPayloads$$' ./internal/shardserve
	$(GO) test $(FUZZ) -fuzz '^FuzzDgemmAsmParity$$' ./internal/blas
	$(GO) test $(FUZZ) -fuzz '^FuzzSqDistRowsParity$$' ./internal/blas
	$(GO) test $(FUZZ) -fuzz '^FuzzNearestRowsParity$$' ./internal/blas
	$(GO) test $(FUZZ) -fuzz '^FuzzReaderRecycle$$' ./internal/store
	$(GO) test $(FUZZ) -fuzz '^FuzzRowCache$$' ./internal/sem
	$(GO) test $(FUZZ) -fuzz '^FuzzStateWriter$$' ./internal/serve
	$(GO) test $(FUZZ) -fuzz '^FuzzLoadState$$' ./internal/serve
	$(GO) test $(FUZZ) -fuzz '^FuzzExposition$$' ./internal/telemetry

# Full figure sweeps (smaller -quick variants; drop -quick for the
# complete scale-reduced reproduction).
figs:
	$(GO) run ./cmd/knorbench -quick

# Documentation hygiene: formatting, vet, and no dangling relative
# links in any markdown file (mirrors the CI docs job).
docs:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck

# The EXPERIMENTS.md serving row: sustained /assign req/s on a
# 1M x 16, k=100 model over local HTTP.
serve-loadtest:
	$(GO) run ./cmd/knorserve -loadtest

# Real-I/O smoke (mirrors CI): generate a small store-format file,
# stream it with the file backend, and assert the result is
# oracle-equal to the simulated backend on the same bytes, with
# nonzero I/O counters.
io-smoke:
	@tmp=$$(mktemp -d) || exit 1; \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/kmeansgen -format knor -kind natural -n 6000 -d 16 -clusters 5 -o $$tmp/smoke.knor && \
	$(GO) run ./cmd/knors -data $$tmp/smoke.knor -backend file -k 5 -threads 4 -pagecache 65536 -rowcache 65536 > $$tmp/file.out && \
	$(GO) run ./cmd/knors -data $$tmp/smoke.knor -backend sim  -k 5 -threads 4 -pagecache 65536 -rowcache 65536 > $$tmp/sim.out && \
	fkey=$$(grep -E '^(SSE|iterations)' $$tmp/file.out); \
	skey=$$(grep -E '^(SSE|iterations)' $$tmp/sim.out); \
	echo "file: $$fkey"; echo "sim:  $$skey"; \
	if [ "$$fkey" != "$$skey" ]; then echo "io-smoke: FILE/SIM MISMATCH"; exit 1; fi; \
	if grep -q 'requested 0.0 MB' $$tmp/file.out; then echo "io-smoke: no I/O recorded"; exit 1; fi; \
	echo "io-smoke: ok (file backend oracle-equal to simulated backend)"

# Distributed-serving smoke (mirrors CI): the sharded-vs-single-node
# bit-identity property tests (machines x precision x argmin ties, and
# across a republish) and the clamp-once check (cancellation noise is
# clamped after the cross-shard min, not inside each shard).
shardserve-smoke:
	$(GO) test -run 'TestShardParity|TestClampAfterGlobalMin' ./internal/shardserve

# Chaos smoke (mirrors CI, deterministic, well under 30s): the seeded
# kill-schedule harness — replicated shard serving stays oracle-exact
# through machine kills/recoveries at both precisions, failures confine
# to the dead group's centroid range, and the schedule replays exactly
# from its seed. Override the schedule with CHAOS_SEED=N for replay.
CHAOS_SEED ?= 1
chaos-smoke:
	$(GO) test -run 'TestChaos' ./internal/shardserve -chaos-seed $(CHAOS_SEED)
	$(GO) run ./cmd/knorbench -quick -exp failover

# Observability smoke (mirrors CI): boot knorserve replicated
# (-machines 3 -replicas 2) at -precision 32, publish a model, and
# assert /readyz flips ready, /metrics serves the expected series from
# every instrumented layer (including the topology membership
# instruments) and counts a float32 kernel dispatch for the assign,
# /debug/traces holds a sampled /assign lifecycle, and killing a machine
# drops the live gauge, fires failovers, and keeps /assign answering.
metrics-smoke:
	@tmp=$$(mktemp -d) || exit 1; \
	trap 'kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/knorserve ./cmd/knorserve && \
	$$tmp/knorserve -addr 127.0.0.1:18080 -trace-sample 1 -machines 3 -replicas 2 \
		-precision 32 & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sS -o /dev/null -w '%{http_code}' http://127.0.0.1:18080/readyz | grep -q 503 || \
		{ echo "metrics-smoke: readyz should be 503 with no models"; exit 1; }; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/models -d \
		'{"name":"smoke","k":4,"iters":10,"spec":{"n":400,"d":4,"clusters":4,"spread":0.05,"seed":1}}' >/dev/null && \
	curl -fsS http://127.0.0.1:18080/readyz >/dev/null || \
		{ echo "metrics-smoke: readyz not ready after publish"; exit 1; }; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/assign -d \
		'{"model":"smoke","rows":[[0.1,0.2,0.3,0.4]]}' >/dev/null && \
	curl -fsS http://127.0.0.1:18080/metrics > $$tmp/metrics.txt && \
	for series in knor_serve_requests_total knor_serve_gemm_seconds \
		knor_shardserve_requests_total knor_store_page_hits_total \
		knor_sem_iterations_total knor_registry_publishes_total \
		knor_http_requests_total knor_topology_machines_live \
		knor_topology_transitions_total knor_topology_health_pulse_seconds \
		knor_shardserve_failovers_total knor_shardserve_rebalances_total \
		knor_shardserve_spread_bytes_total knor_blas_gemm_dispatch_total \
		knor_net_bytes_total knor_net_frames_total \
		knor_net_dial_errors_total knor_net_roundtrip_seconds; do \
		grep -q "^# TYPE $$series" $$tmp/metrics.txt || \
			{ echo "metrics-smoke: $$series missing from /metrics"; exit 1; }; done; \
	grep -Eq '^knor_blas_gemm_dispatch_total\{kernel="(asm32|go32)"\} [1-9]' $$tmp/metrics.txt || \
		{ echo "metrics-smoke: no float32 kernel served the assign (-precision 32)"; exit 1; }; \
	grep -q '^knor_topology_machines_live 3$$' $$tmp/metrics.txt || \
		{ echo "metrics-smoke: live gauge should read 3 at boot"; exit 1; }; \
	families=$$(grep -c '^# TYPE ' $$tmp/metrics.txt); \
	[ "$$families" -ge 25 ] || { echo "metrics-smoke: only $$families series families"; exit 1; }; \
	curl -fsS http://127.0.0.1:18080/debug/traces | grep -q '"gemm"' || \
		{ echo "metrics-smoke: no gemm stage in sampled traces"; exit 1; }; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/machines -d '{"machine":1,"action":"kill"}' >/dev/null && \
	curl -fsS -X POST http://127.0.0.1:18080/v1/assign -d \
		'{"model":"smoke","rows":[[0.1,0.2,0.3,0.4]]}' >/dev/null || \
		{ echo "metrics-smoke: assign failed with one machine down (replicas=2)"; exit 1; }; \
	curl -fsS http://127.0.0.1:18080/metrics > $$tmp/metrics2.txt && \
	grep -q '^knor_topology_machines_live 2$$' $$tmp/metrics2.txt || \
		{ echo "metrics-smoke: live gauge should read 2 after kill"; exit 1; }; \
	grep -q '^knor_topology_transitions_total{to="dead"} [1-9]' $$tmp/metrics2.txt || \
		{ echo "metrics-smoke: no dead transition recorded"; exit 1; }; \
	echo "metrics-smoke: ok ($$families series families, readyz + traces + failover verified)"

# Real-cluster smoke (mirrors CI): knord as 3 OS processes over
# loopback TCP bit-identical (result checksum) to the single-process
# run at both precisions, then knorserve as coordinator + 2 worker
# processes answering /v1/assign byte-identical to a single-node
# server before and after a kill -9 of one worker. Also asserts the
# cluster observability surface: /metrics/cluster carries worker-rank
# series and degrades the killed worker to knor_federation_stale,
# /debug/traces shows worker spans stitched into coordinator traces,
# and /debug/events journals the peer joins.
cluster-smoke:
	@sh scripts/cluster_smoke.sh

# The benchmark harness is a separate Go module (bench/go.mod), so the
# root `go test ./...` does not reach it: its unit tests plus
# TestBenchQuick, a toy end-to-end pass that builds knorserve (~10 s).
bench-harness:
	cd bench && $(GO) test ./...

clean:
	$(GO) clean ./...
