package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/shardserve"
	"knor/internal/telemetry"
	"knor/internal/topology"
	"knor/internal/workload"
)

type serverOptions struct {
	threads      int
	nodes        int
	publishEvery int
	// machines shards every model's centroids across this many
	// simulated machines (the -machines flag); 1 serves single-node.
	machines int
	// replicas places every shard group on this many distinct machines
	// (the -replicas flag): /assign fans out to the preferred replica
	// and fails over to the others, so any replicas-1 machine deaths
	// stay invisible to clients. Only meaningful with machines > 1.
	replicas int
	// quota bounds in-flight /assign requests per model (-quota);
	// excess requests are answered 429 with a Retry-After hint.
	quota int
	// stateDir persists model snapshots on publish and shutdown and
	// reloads them on boot (the -state flag); empty disables.
	stateDir string
	// precision selects the assign hot path's element type (the
	// -precision flag): float32 halves per-flush memory traffic.
	precision kmeans.Precision
	// retainVersions/retainAge bound the registry's per-model history.
	retainVersions int
	retainAge      time.Duration
	// pprof exposes net/http/pprof under /debug/pprof/ (the -pprof
	// flag); off by default — profiling endpoints are opt-in.
	pprof bool
	// traceEvery samples one /assign request in every N for the
	// /debug/traces dump (the -trace-sample flag); 0 disables tracing.
	traceEvery int
	// accessLog emits one structured line per HTTP request with its
	// request ID (the -access-log flag).
	accessLog bool
	// transport, when set, is a bootstrapped netcluster coordinator
	// rank: the machines are real worker processes (ServePeer) instead
	// of simulated in-process registries. Implies machines =
	// transport.Size(); heartbeats arrive over the wire instead of the
	// in-process pulse clock.
	transport netcluster.Transport
}

// server wires the registry, the batched assignment path (single-node
// or centroid-sharded), and one stream updater per model behind JSON
// handlers.
type server struct {
	opts    serverOptions
	reg     *serve.Registry
	batcher serve.Assigner
	tracer  *telemetry.Tracer // nil unless -trace-sample > 0
	// shards/topo are set when -machines > 1: the replicated shard
	// layout and the membership layer healing it. pulseStop halts the
	// health-pulse clock feeding the topology.
	shards    *shardserve.ShardRegistry
	topo      *topology.Topology
	pulseStop func()
	// hub is the coordinator side of a real cluster (-cluster mode):
	// it pushes shard placements to worker peers and answers fan-out
	// RPCs. nil in single-process and simulated-machine modes.
	hub *shardserve.Hub
	// draining flips before the HTTP listener shuts down so /readyz
	// turns the server away from load balancers while in-flight
	// requests finish.
	draining atomic.Bool

	closeOnce sync.Once
	sweepStop chan struct{}
	// saveCh nudges the saver goroutine after a publish; saveDone
	// closes when it exits. Both nil without -state.
	saveCh    chan struct{}
	saveStop  chan struct{}
	saveDone  chan struct{}
	statePath string

	mu      sync.Mutex
	streams map[string]*serve.StreamEngine
	// unfolded counts rows observed since the last auto-publish.
	unfolded map[string]int
}

func newServer(opts serverOptions) (*server, error) {
	var reg *serve.Registry
	var loadedCPs []serve.StreamCheckpoint
	statePath := ""
	if opts.stateDir != "" {
		if err := os.MkdirAll(opts.stateDir, 0o755); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
		statePath = filepath.Join(opts.stateDir, "registry.json")
		loaded, cps, err := serve.LoadState(statePath, opts.nodes)
		if err != nil {
			return nil, err
		}
		reg, loadedCPs = loaded, cps // nil on first boot
	}
	if reg == nil {
		reg = serve.NewRegistry(opts.nodes)
	}
	if opts.retainVersions > 0 || opts.retainAge > 0 {
		reg.SetRetention(serve.Retention{MaxVersions: opts.retainVersions, MaxAge: opts.retainAge})
	}
	var tracer *telemetry.Tracer
	if opts.traceEvery > 0 {
		tracer = telemetry.NewTracer(opts.traceEvery, 16)
	}
	bopts := serve.BatcherOptions{
		Threads: opts.threads, ModelQuota: opts.quota, Tracer: tracer,
	}
	var batcher serve.Assigner
	var shards *shardserve.ShardRegistry
	var topo *topology.Topology
	var pulseStop func()
	var hub *shardserve.Hub
	switch {
	case opts.transport != nil:
		// Real cluster: machine m is transport rank m. Machine 0 is
		// this process; the rest are worker peers running ServePeer.
		// Heartbeats arrive over the wire (hub demux), the hub's clock
		// self-pulses machine 0 and sweeps, and shard placements are
		// pushed to the owning peers on publish and rebalance.
		m := opts.transport.Size()
		topo = topology.New(topology.Config{Machines: m})
		hub = shardserve.NewHub(opts.transport, 0)
		shards = shardserve.NewShardRegistryWith(shardserve.Options{
			Machines: m, Replicas: opts.replicas, Topology: topo, Remote: hub,
		})
		if err := shards.Attach(reg); err != nil {
			topo.Close()
			return nil, err
		}
		batcher = shardserve.NewAssigner(shards, bopts, opts.precision)
		hub.Start(topo, shards)
	case opts.machines > 1:
		topo = topology.New(topology.Config{Machines: opts.machines})
		shards = shardserve.NewShardRegistryWith(shardserve.Options{
			Machines: opts.machines, Replicas: opts.replicas, Topology: topo,
		})
		if err := shards.Attach(reg); err != nil {
			topo.Close()
			return nil, err
		}
		batcher = shardserve.NewAssigner(shards, bopts, opts.precision)
		// The production detection loop: every simulated machine whose
		// process is "up" (kill switch off) pulses; machines that go
		// silent are swept dead and their shards re-spread.
		pulseStop = topo.StartClock(0, func(m int) bool { return !shards.MachineDown(m) })
	default:
		batcher = serve.NewAssigner(reg, bopts, opts.precision)
	}
	s := &server{
		opts:      opts,
		reg:       reg,
		batcher:   batcher,
		tracer:    tracer,
		shards:    shards,
		topo:      topo,
		pulseStop: pulseStop,
		hub:       hub,
		sweepStop: make(chan struct{}),
		statePath: statePath,
		streams:   map[string]*serve.StreamEngine{},
		unfolded:  map[string]int{},
	}
	// Reloaded models resume their stream updater from the persisted
	// mini-batch checkpoint when the state file carries one — the
	// resumed engine folds the next batch with exactly the learning
	// rates an uninterrupted one would. Models from older state files
	// (no checkpoint) get a fresh updater seeded from the published
	// centroids; only their early post-restart folding is slower.
	cpByModel := make(map[string]serve.StreamCheckpoint, len(loadedCPs))
	for _, cp := range loadedCPs {
		cpByModel[cp.Model] = cp
	}
	for _, m := range reg.List() {
		cp, ok := cpByModel[m.Name]
		if !ok {
			cp = serve.StreamCheckpoint{
				Model:     m.Name,
				Centroids: m.Centroids,
				Counts:    make([]int64, m.K()),
				Published: m.Version,
			}
		}
		eng, err := serve.ResumeStreamEngine(cp, reg)
		if err != nil {
			return nil, fmt.Errorf("restore stream for %q: %w", m.Name, err)
		}
		s.streams[m.Name] = eng
	}
	if statePath != "" {
		s.saveCh = make(chan struct{}, 1)
		s.saveStop = make(chan struct{})
		s.saveDone = make(chan struct{})
		// The hook runs under the registry lock: only nudge the saver.
		reg.OnPublish(func(*serve.Model) {
			select {
			case s.saveCh <- struct{}{}:
			default:
			}
		})
		go s.saver()
	}
	if opts.retainAge > 0 {
		// Publish-driven eviction never ages out a model that stopped
		// publishing, so sweep on a timer (a few times per MaxAge).
		go s.sweep(clampDuration(opts.retainAge/4, time.Second, time.Minute))
	}
	return s, nil
}

// saver persists the registry and the stream-updater checkpoints after
// publishes (coalescing bursts) and once more on shutdown — the
// shutdown save captures any rows folded since the last publish, so a
// restart resumes mid-stream exactly.
func (s *server) saver() {
	defer close(s.saveDone)
	save := func() {
		cps := s.checkpoints()
		if err := serve.SaveState(s.reg, cps, s.statePath); err != nil {
			telSaveErrors.Inc()
			fmt.Fprintln(os.Stderr, "knorserve: state save:", err)
			telemetry.Log("serve", telemetry.SevError, "state save failed",
				telemetry.F("path", s.statePath), telemetry.F("err", err.Error()))
			return
		}
		telemetry.Log("serve", telemetry.SevInfo, "stream checkpoint saved",
			telemetry.F("path", s.statePath),
			telemetry.F("models", len(s.reg.List())), telemetry.F("checkpoints", len(cps)))
	}
	for {
		select {
		case <-s.saveCh:
			save()
		case <-s.saveStop:
			save()
			return
		}
	}
}

// checkpoints snapshots every stream updater's mini-batch state.
func (s *server) checkpoints() []serve.StreamCheckpoint {
	s.mu.Lock()
	engs := make([]*serve.StreamEngine, 0, len(s.streams))
	for _, eng := range s.streams {
		engs = append(engs, eng)
	}
	s.mu.Unlock()
	cps := make([]serve.StreamCheckpoint, 0, len(engs))
	for _, eng := range engs {
		cps = append(cps, eng.Checkpoint())
	}
	return cps
}

// sweep applies the age bound periodically until close.
func (s *server) sweep(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.reg.EvictExpired(time.Now())
		case <-s.sweepStop:
			return
		}
	}
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

func (s *server) close() {
	s.closeOnce.Do(func() {
		close(s.sweepStop)
		if s.pulseStop != nil {
			s.pulseStop()
		}
		s.batcher.Close()
		if s.hub != nil {
			// Closes the transport too, which tells the worker peers'
			// serve loops to exit.
			s.hub.Close()
		}
		if s.topo != nil {
			s.topo.Close()
		}
		if s.saveStop != nil {
			// The saver writes one final snapshot before exiting, so a
			// clean shutdown never loses a published version.
			close(s.saveStop)
			<-s.saveDone
		}
	})
}

// mux builds the route table wrapped in the observability middleware.
// /healthz is pure liveness (the process is up and serving its mux);
// /readyz is readiness (this instance can usefully take traffic right
// now) — load balancers should watch the latter.
func (s *server) mux() http.Handler {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("GET /readyz", s.handleReady)
	m.Handle("GET /metrics", telemetry.Default.Handler())
	m.HandleFunc("GET /metrics/cluster", s.handleClusterMetrics)
	m.HandleFunc("GET /debug/traces", s.handleTraces)
	m.HandleFunc("GET /debug/events", s.handleEvents)
	if s.opts.pprof {
		m.HandleFunc("/debug/pprof/", pprof.Index)
		m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	m.HandleFunc("GET /v1/models", s.handleListModels)
	m.HandleFunc("POST /v1/models", s.handleCreateModel)
	m.HandleFunc("GET /v1/machines", s.handleListMachines)
	m.HandleFunc("POST /v1/machines", s.handleMachineAction)
	m.HandleFunc("GET /v1/cluster/stats", s.handleClusterStats)
	m.HandleFunc("POST /v1/assign", s.handleAssign)
	m.HandleFunc("POST /v1/observe", s.handleObserve)
	m.HandleFunc("POST /v1/publish", s.handlePublish)
	m.HandleFunc("GET /v1/stats", s.handleStats)
	return s.withObservability(m)
}

// handleReady answers readiness: 503 while draining, when no model is
// published yet (nothing to serve), or when the state directory stopped
// being writable (snapshots would silently fail). With a replicated
// shard layout it also classifies shard health: "degraded" (some
// replicas down, every group still answering — 200, the instance can
// take traffic, but operators should look) and "unavailable" (at least
// one group has no live replica, so part of the centroid space cannot
// answer — 503). Both carry the affected shard groups in the body.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if len(s.reg.List()) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no models published"})
		return
	}
	if s.opts.stateDir != "" {
		probe, err := os.CreateTemp(s.opts.stateDir, ".readyz-*")
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"status": "state dir not writable: " + err.Error()})
			return
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	if s.shards != nil {
		degraded, unavailable := s.shards.Health()
		if len(unavailable) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "unavailable", "unavailable": unavailable, "degraded": degraded,
			})
			return
		}
		if len(degraded) > 0 {
			writeJSON(w, http.StatusOK, map[string]any{
				"status": "degraded", "degraded": degraded,
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleListMachines reports the simulated cluster: per-machine
// liveness (both the kill switch and the membership layer's view) and
// every shard group's replica health. 404 on a single-node server —
// there is no cluster to inspect.
func (s *server) handleListMachines(w http.ResponseWriter, _ *http.Request) {
	if s.shards == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("single-node server: no machines (-machines 1)"))
		return
	}
	type machineInfo struct {
		Machine int  `json:"machine"`
		Up      bool `json:"up"`   // kill switch: the process answers
		Live    bool `json:"live"` // membership: the topology's view
	}
	machines := make([]machineInfo, s.shards.Machines())
	for m := range machines {
		machines[m] = machineInfo{
			Machine: m,
			Up:      !s.shards.MachineDown(m),
			Live:    s.topo.IsLive(m),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"machines": machines,
		"replicas": s.shards.Replicas(),
		"groups":   s.shards.GroupHealth(),
	})
}

// handleMachineAction kills or revives one simulated machine — the
// fault-injection surface behind the chaos experiments, and a handy
// drain lever ("kill" stops routing to a machine immediately; its
// shards fail over and the membership layer re-spreads them).
func (s *server) handleMachineAction(w http.ResponseWriter, r *http.Request) {
	if s.shards == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("single-node server: no machines (-machines 1)"))
		return
	}
	var req struct {
		Machine int    `json:"machine"`
		Action  string `json:"action"` // "kill" | "revive"
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Machine < 0 || req.Machine >= s.shards.Machines() {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("machine %d out of range [0,%d)", req.Machine, s.shards.Machines()))
		return
	}
	switch req.Action {
	case "kill":
		s.shards.Kill(req.Machine)
	case "revive":
		s.shards.Revive(req.Machine)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown action %q (want kill|revive)", req.Action))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"machine": req.Machine, "action": req.Action, "live": s.topo.Live(),
	})
}

// traceView is one sampled request lifecycle as served by
// /debug/traces, durations in microseconds.
type traceView struct {
	ID uint64 `json:"id"`
	// TraceID is the propagatable trace identity in hex — the value
	// that crossed process boundaries for stitched cluster traces.
	TraceID string       `json:"trace_id"`
	Begin   time.Time    `json:"begin"`
	TotalUS float64      `json:"total_us"`
	Stages  []traceStage `json:"stages"`
}

type traceStage struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

func (s *server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	trs := s.tracer.Traces()
	out := make([]traceView, 0, len(trs))
	for _, t := range trs {
		tv := traceView{
			ID: t.ID, TraceID: fmt.Sprintf("%016x", t.ID), Begin: t.Begin,
			// A trace still being finalized has no end yet; clamp so the
			// dump never shows a negative total.
			TotalUS: max(t.End().Sub(t.Begin).Seconds()*1e6, 0),
		}
		for _, st := range t.Stages() {
			tv.Stages = append(tv.Stages, traceStage{
				Name:    st.Name,
				StartUS: st.Start.Seconds() * 1e6,
				DurUS:   st.Dur.Seconds() * 1e6,
			})
		}
		out = append(out, tv)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sample_every": s.opts.traceEvery,
		"traces":       out,
	})
}

// writeJSON answers status with v encoded as one JSON line. v is encoded
// before the status is written, so a value JSON cannot carry becomes a
// 500 with an error body, never a 200 with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody answers status with an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes r's JSON body into v, at most maxBodyBytes of it,
// answering 413 or 400 itself when that fails.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		writeErr(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

type modelInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	K       int    `json:"k"`
	D       int    `json:"d"`
	Node    int    `json:"node"`
}

func infoOf(m *serve.Model) modelInfo {
	return modelInfo{Name: m.Name, Version: m.Version, K: m.K(), D: m.Dims(), Node: m.Node}
}

func (s *server) handleListModels(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.List()
	out := make([]modelInfo, len(models))
	for i, m := range models {
		out[i] = infoOf(m)
	}
	writeJSON(w, http.StatusOK, out)
}

// createModelReq trains a model from inline rows or a generated spec
// and registers it together with its stream updater.
type createModelReq struct {
	Name    string      `json:"name"`
	K       int         `json:"k"`
	Rows    [][]float64 `json:"rows,omitempty"`
	Engine  string      `json:"engine,omitempty"` // "lloyd" (default) | "minibatch"
	Iters   int         `json:"iters,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Threads int         `json:"threads,omitempty"`
	// Spec generates a synthetic training set when rows are omitted.
	Spec *struct {
		N        int     `json:"n"`
		D        int     `json:"d"`
		Clusters int     `json:"clusters"`
		Spread   float64 `json:"spread"`
		Seed     int64   `json:"seed"`
	} `json:"spec,omitempty"`
}

func (s *server) handleCreateModel(w http.ResponseWriter, r *http.Request) {
	var req createModelReq
	if !decodeBody(w, r, &req) {
		return
	}
	// Reject duplicate names before paying for training (register
	// re-checks under the same lock, so a racing create still loses
	// cleanly there).
	s.mu.Lock()
	_, exists := s.streams[req.Name]
	s.mu.Unlock()
	if exists {
		writeErr(w, http.StatusConflict, fmt.Errorf("model %q already exists", req.Name))
		return
	}
	var data *matrix.Dense
	var err error
	switch {
	case len(req.Rows) > 0:
		data, err = matrix.FromRows(req.Rows)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	case req.Spec != nil:
		if req.Spec.N <= 0 || req.Spec.D <= 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("spec is %dx%d: need at least one row and one dimension", req.Spec.N, req.Spec.D))
			return
		}
		data = workload.Generate(workload.Spec{
			Kind: workload.NaturalClusters, N: req.Spec.N, D: req.Spec.D,
			Clusters: req.Spec.Clusters, Spread: req.Spec.Spread, Seed: req.Spec.Seed,
		})
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need rows or spec"))
		return
	}
	// Zero-dimensional or empty training data would otherwise reach the
	// distance kernels (k=0/d=0 GEMMs) — reject it at the boundary.
	if data.Rows() == 0 || data.Cols() == 0 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("training data is %dx%d: need at least one row and one dimension", data.Rows(), data.Cols()))
		return
	}
	cfg := kmeans.Config{
		K: req.K, MaxIters: req.Iters, Seed: req.Seed,
		Init: kmeans.InitKMeansPP, Prune: kmeans.PruneMTI, Threads: req.Threads,
	}
	var centroids *matrix.Dense
	switch req.Engine {
	case "", "lloyd":
		res, rerr := kmeans.Run(data, cfg)
		if rerr != nil {
			writeErr(w, http.StatusBadRequest, rerr)
			return
		}
		centroids = res.Centroids
	case "minibatch":
		res, rerr := kmeans.RunMiniBatch(data, cfg, 1024)
		if rerr != nil {
			writeErr(w, http.StatusBadRequest, rerr)
			return
		}
		centroids = res.Centroids
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown engine %q", req.Engine))
		return
	}
	snap, err := s.register(req.Name, centroids)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(snap))
}

// register publishes seed centroids and attaches a stream updater.
func (s *server) register(name string, centroids *matrix.Dense) (*serve.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.streams[name]; exists {
		return nil, fmt.Errorf("model %q already exists", name)
	}
	eng, err := serve.NewStreamEngine(name, centroids, s.reg)
	if err != nil {
		return nil, err
	}
	s.streams[name] = eng
	snap, _ := s.reg.Get(name)
	return snap, nil
}

func (s *server) handleAssign(w http.ResponseWriter, r *http.Request) {
	req, ok := readRows(w, r)
	if !ok {
		return
	}
	defer req.release()
	as, err := s.batcher.AssignRows(req.model, &req.rows)
	if err != nil {
		if errors.Is(err, serve.ErrOverloaded) {
			// Backpressure: the model's in-flight quota is exhausted.
			// In-flight requests are answered by the next flush or two,
			// so a 1-second backoff is ample headroom.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		if errors.Is(err, shardserve.ErrShardUnavailable) {
			// A shard group lost every replica: that centroid range
			// cannot answer until a machine recovers (the error names
			// the range). Clients should retry elsewhere.
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The body has been decoded, so its buffer takes the reply.
	req.body.Reset()
	reply, err := appendAssignReply(req.body.AvailableBuffer(), as)
	if err != nil {
		// The row's norm was finite, but a distance at the serving
		// precision was not.
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeBody(w, http.StatusOK, reply)
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	req, ok := readRows(w, r)
	if !ok {
		return
	}
	defer req.release()
	rows := &req.rows
	s.mu.Lock()
	eng, ok := s.streams[req.model]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown model %q", req.model))
		return
	}
	drift, err := eng.Observe(rows)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	version := 0
	if snap, ok := s.reg.Get(req.model); ok {
		version = snap.Version
	}
	// Auto-publish once enough rows accumulated, so the query path
	// keeps up with the stream without manual /publish calls.
	if s.opts.publishEvery > 0 {
		s.mu.Lock()
		s.unfolded[req.model] += rows.Rows()
		doPublish := s.unfolded[req.model] >= s.opts.publishEvery
		if doPublish {
			s.unfolded[req.model] = 0
		}
		s.mu.Unlock()
		if doPublish {
			if snap, perr := eng.Publish(); perr == nil {
				version = snap.Version
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seen": eng.Seen(), "drift": drift, "version": version,
	})
}

func (s *server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Model string `json:"model"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	eng, ok := s.streams[req.Model]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown model %q", req.Model))
		return
	}
	snap, err := eng.Publish()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, infoOf(snap))
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.batcher.Stats()
	p50, p95, p99, mean := s.edgeLatencyMS(telemetry.Default.Snapshot())
	machines := s.opts.machines
	if machines < 1 {
		machines = 1
	}
	replicas := 1
	if s.shards != nil {
		replicas = s.shards.Replicas()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"requests":       st.Requests,
		"rows":           st.Rows,
		"flushes":        st.Flushes,
		"rejected":       st.Rejected,
		"p50_ms":         p50,
		"p95_ms":         p95,
		"p99_ms":         p99,
		"mean_ms":        mean,
		"models":         len(s.reg.List()),
		"avg_batch":      avgBatch(st),
		"precision":      s.opts.precision.String(),
		"machines":       machines,
		"replicas":       replicas,
		"inflight":       s.batcher.InFlight(),
		"snapshot_saves": serve.SnapshotSaves(),
		"snapshot_loads": serve.SnapshotLoads(),
	})
}

func avgBatch(st serve.BatcherStats) float64 {
	if st.Flushes == 0 {
		return 0
	}
	return float64(st.Rows) / float64(st.Flushes)
}
