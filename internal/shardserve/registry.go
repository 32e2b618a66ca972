package shardserve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"knor/internal/blas"
	"knor/internal/dist"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
	"knor/internal/topology"
)

// ShardRegistry keeps M per-machine serve.Registry instances in
// lockstep: every published model is split into contiguous centroid-row
// shards (dist.Partition over the k rows) and each shard is restored
// into R machines' registries under the same shard key and the SAME
// version number. Each machine registry is an ordinary copy-on-write
// serve.Registry, so per-machine batchers get the single-node snapshot
// guarantees for free; the plan table maps shard-local argmins back to
// global centroid indices and lists each shard's replica machines in
// preference order.
//
// Replication and self-healing: with Options.Replicas R > 1, shard s
// lands on R distinct machines (topology.Place over the live set), so
// any R-1 machine deaths leave every centroid range answerable — the
// fan-out fails over to the surviving replicas. With a Topology
// attached, every dead/recovered transition re-spreads placements from
// the canonical copy the registry retains per model, restoring full
// replication while the cluster keeps serving.
//
// A model with fewer centroids than machines occupies only k shard
// groups; a publish that changes k rebalances the split and drops
// stranded shard copies so no stale snapshot can answer.
type ShardRegistry struct {
	machines int
	replicas int
	topo     *topology.Topology
	remote   Remote

	regs []*serve.Registry
	// down[m] is the fault-injection kill switch: a down machine's
	// batcher is never consulted (its calls would time out in a real
	// cluster), independent of whether the topology has detected the
	// death yet — that lag is exactly the window the fan-out's failover
	// covers.
	down []atomic.Bool

	// spreadBytes counts centroid payload bytes actually copied into
	// machine registries by publishes, mirrors and healing re-spreads —
	// the simulated network cost of moving shard data. Restores skipped
	// because a machine already holds the shard at that version don't
	// count; 4-byte (float32) models move half the bytes of 8-byte ones.
	spreadBytes atomic.Uint64
	// rebalances counts finished healing re-spreads, one per membership
	// transition the topology delivered.
	rebalances atomic.Uint64

	mu     sync.RWMutex
	splits map[string]*split
	// canon retains each model's latest full centroid snapshot (the
	// publisher's copy), the source self-healing re-replicates from: a
	// machine death never loses shard data as long as the registry
	// process lives, mirroring a driver that re-pushes placements.
	canon map[string]canonModel
}

// split records how one model's current version is laid out: shard s
// holds global centroid rows [offsets[s], offsets[s+1]) on the machines
// replicas[s], in preference order.
type split struct {
	version int
	// gen increments on every re-spread — including same-version
	// rebalances after membership changes — so an in-flight fan-out can
	// tell "my plan went stale" apart from "a replica is truly dead".
	gen      uint64
	offsets  []int
	replicas [][]int
}

// canonModel is the retained canonical copy of one model. Exactly one
// of c64/c32 is set, per elem (8 or 4): a float32-published model keeps
// its 4-byte payload canonical end to end, so every shard restore —
// publish, mirror or healing re-spread — moves half the bytes and the
// shard batchers serve the publisher's float32 bits unconverted.
type canonModel struct {
	version int
	node    int
	elem    int           // payload element width: 8 or 4
	c64     *matrix.Dense // immutable (cloned at publish / snapshot at mirror)
	c32     *matrix.Mat[float32]
}

func (cm canonModel) rows() int {
	if cm.elem == 4 {
		return cm.c32.Rows()
	}
	return cm.c64.Rows()
}

func (cm canonModel) cols() int {
	if cm.elem == 4 {
		return cm.c32.Cols()
	}
	return cm.c64.Cols()
}

// canonOf wraps a centroid matrix (already safe to retain) as a
// canonical copy at the given version.
func canonOf[T blas.Float](version, node int, centroids *matrix.Mat[T]) canonModel {
	cm := canonModel{version: version, node: node, elem: blas.ElemBytes[T]()}
	switch c := any(centroids).(type) {
	case *matrix.Mat[float32]:
		cm.c32 = c
	case *matrix.Dense:
		cm.c64 = c
	}
	return cm
}

// Options configure a ShardRegistry.
type Options struct {
	// Machines is the simulated machine count (>= 1).
	Machines int
	// Replicas is the replication factor R: every shard is restored
	// into min(R, live machines) distinct machines. Values < 1 mean 1
	// (no replication, the pre-replication layout).
	Replicas int
	// Topology, when set, drives liveness-aware placement: shards are
	// placed over live machines only, and every dead/recovered
	// transition re-spreads under-replicated shards from the canonical
	// copy (self-healing). The registry subscribes to the topology; the
	// caller retains ownership and must Close it after the registry is
	// done serving.
	Topology *topology.Topology
	// Remote, when set, maps non-local machine indices to real peer
	// processes (cluster mode): restores and drops for those machines
	// are additionally pushed over the transport, and the fan-out
	// answers their shard groups by RPC instead of an in-process
	// batcher. Push errors are non-fatal (a dead peer must not abort
	// the rebalance that is routing around it); they are counted in
	// knor_shardserve_push_errors_total.
	Remote Remote
}

// NewShardRegistry builds an empty sharded registry over the given
// machine count with no replication — the single-copy layout.
func NewShardRegistry(machines int) *ShardRegistry {
	return NewShardRegistryWith(Options{Machines: machines})
}

// NewShardRegistryWith builds an empty sharded registry from Options.
func NewShardRegistryWith(opts Options) *ShardRegistry {
	if opts.Machines < 1 {
		panic("shardserve: need at least one machine")
	}
	r := opts.Replicas
	if r < 1 {
		r = 1
	}
	if r > opts.Machines {
		r = opts.Machines
	}
	sr := &ShardRegistry{
		machines: opts.Machines,
		replicas: r,
		topo:     opts.Topology,
		remote:   opts.Remote,
		down:     make([]atomic.Bool, opts.Machines),
		splits:   map[string]*split{},
		canon:    map[string]canonModel{},
	}
	sr.regs = make([]*serve.Registry, opts.Machines)
	for i := range sr.regs {
		sr.regs[i] = serve.NewRegistry(1)
	}
	if sr.topo != nil {
		sr.topo.Subscribe(func(topology.Event) { sr.rebalance() })
	}
	return sr
}

// Machines returns the machine count.
func (sr *ShardRegistry) Machines() int { return sr.machines }

// Replicas returns the replication factor R.
func (sr *ShardRegistry) Replicas() int { return sr.replicas }

// Remote returns the cluster-mode peer seam, nil on a single-process
// registry.
func (sr *ShardRegistry) Remote() Remote { return sr.remote }

// Registry returns machine i's local registry (for wiring per-machine
// batchers). Shards live in it under ShardKey(model, shard).
func (sr *ShardRegistry) Registry(i int) *serve.Registry { return sr.regs[i] }

// ShardKey names shard s of a model inside a machine's local registry.
// The NUL separator cannot collide with user-facing model names (JSON
// strings never round-trip through it in our API paths).
func ShardKey(model string, shard int) string {
	return fmt.Sprintf("%s\x00%d", model, shard)
}

// Kill simulates machine m's process dying: the fan-out stops routing
// to it immediately (down switch) and, when a topology is attached, the
// membership layer is told explicitly — the deterministic
// fault-injection path. The machine's registry contents are retained,
// as a rejoining process would recover its local state.
func (sr *ShardRegistry) Kill(m int) {
	sr.down[m].Store(true)
	if sr.topo != nil {
		sr.topo.MarkDead(m)
	}
}

// Revive brings a killed machine back: routing resumes and the
// membership layer re-spreads placements to reinclude it.
func (sr *ShardRegistry) Revive(m int) {
	sr.down[m].Store(false)
	if sr.topo != nil {
		sr.topo.MarkRecovered(m)
	}
}

// MachineDown reports machine m's kill switch.
func (sr *ShardRegistry) MachineDown(m int) bool { return sr.down[m].Load() }

// Plan is one model's current serving layout, the unit a fan-out
// operates on: all three fields must describe the same (version, gen)
// for the local->global index mapping and the failover order to make
// sense.
type Plan struct {
	Version int
	Gen     uint64
	// Offsets has len shards+1: shard s serves global centroid rows
	// [Offsets[s], Offsets[s+1]).
	Offsets []int
	// Replicas[s] lists the machines holding shard s in preference
	// order; a fan-out tries them left to right.
	Replicas [][]int
}

// GetPlan returns the named model's current layout.
func (sr *ShardRegistry) GetPlan(name string) (Plan, bool) {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	sp, ok := sr.splits[name]
	if !ok {
		return Plan{}, false
	}
	return Plan{Version: sp.version, Gen: sp.gen, Offsets: sp.offsets, Replicas: sp.replicas}, true
}

// Split returns the named model's current version and shard offsets
// (len = shards+1; shard s serves global centroid rows
// [offsets[s], offsets[s+1])).
func (sr *ShardRegistry) Split(name string) (version int, offsets []int, ok bool) {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	sp, spOK := sr.splits[name]
	if !spOK {
		return 0, nil, false
	}
	return sp.version, sp.offsets, true
}

// Publish splits centroids across the machines as the next version of
// the named model. The machine registries clone their slices
// (copy-on-write), so the caller keeps ownership of centroids.
func (sr *ShardRegistry) Publish(name string, centroids *matrix.Dense) (version int, err error) {
	return PublishOf(sr, name, centroids)
}

// PublishOf is Publish for either element width: float32 centroids
// stay 4-byte on the wire — every shard restore and healing re-spread
// moves the float32 payload, and the shard batchers serve those bits
// unconverted (bit-compatible with the single-node float32 path).
func PublishOf[T blas.Float](sr *ShardRegistry, name string, centroids *matrix.Mat[T]) (version int, err error) {
	if centroids == nil || centroids.Rows() == 0 || centroids.Cols() == 0 {
		return 0, fmt.Errorf("shardserve: model %q published with no centroids", name)
	}
	cl := centroids.Clone()
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var v int
	if sp, ok := sr.splits[name]; ok {
		v = sp.version + 1
	} else {
		v = 1
	}
	if err := sr.restoreLocked(name, canonOf(v, 0, cl)); err != nil {
		return 0, err
	}
	return v, nil
}

// SpreadBytes reports the cumulative centroid payload bytes this
// registry has copied into machine registries (publishes, mirrors and
// healing re-spreads).
func (sr *ShardRegistry) SpreadBytes() uint64 { return sr.spreadBytes.Load() }

// Rebalances reports how many healing re-spreads have finished.
func (sr *ShardRegistry) Rebalances() uint64 { return sr.rebalances.Load() }

// Attach mirrors primary into the shard registries — current models
// first, then every future publish via the registry's publish hook —
// preserving primary's version numbers so shard snapshots answer with
// the same Version the primary reports. The hook runs under primary's
// lock (publish order); stale restores racing the initial mirror are
// skipped.
//
// The mirror runs synchronously inside the hook, a deliberate
// trade-off: re-sharding under the primary's lock costs one extra
// centroid copy + norms pass (the same order of work Publish itself
// does before locking), and in exchange the shard registries can
// never lag the primary by more than a fan-out's version-skew retry.
// An async mirror would open arbitrarily long windows where every
// assign answers a version the primary no longer reports.
func (sr *ShardRegistry) Attach(primary *serve.Registry) error {
	primary.OnPublish(func(m *serve.Model) {
		// Hook context: primary's lock is held, so no call back into
		// primary here; shard registries have their own locks.
		sr.mirror(m)
	})
	for _, m := range primary.List() {
		sr.mirror(m)
	}
	return nil
}

// mirror restores one primary snapshot into the shards, skipping
// versions the shards already caught up past (the Attach race). The
// snapshot's centroids are immutable, so the canonical copy retains
// them without cloning.
func (sr *ShardRegistry) mirror(m *serve.Model) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sp, ok := sr.splits[m.Name]; ok && sp.version >= m.Version {
		return
	}
	cm := canonModel{version: m.Version, node: m.Node, elem: 8, c64: m.Centroids}
	if p32 := m.Payload32(); p32 != nil {
		cm = canonModel{version: m.Version, node: m.Node, elem: 4, c32: p32}
	}
	if err := sr.restoreLocked(m.Name, cm); err != nil {
		// Dims changed without a version going backwards can only be a
		// primary-registry invariant violation; surface loudly.
		panic(fmt.Sprintf("shardserve: mirror %q v%d: %v", m.Name, m.Version, err))
	}
}

// livePlacementLocked returns the machines placement may use: the
// topology's live set when one is attached (all machines if it is
// somehow empty — placement must target somewhere, and the fan-out's
// down checks still protect callers), every machine otherwise.
func (sr *ShardRegistry) livePlacementLocked() []int {
	if sr.topo != nil {
		if live := sr.topo.Live(); len(live) > 0 {
			return live
		}
	}
	all := make([]int, sr.machines)
	for i := range all {
		all[i] = i
	}
	return all
}

// restoreLocked splits the canonical copy, restores shard s into its
// placed machines' registries at cm's version, drops copies that fell
// out of the placement, and updates the plan table. cm's payload must
// be safe to retain (cloned by PublishOf, immutable from mirror).
// Caller holds sr.mu.
func (sr *ShardRegistry) restoreLocked(name string, cm canonModel) error {
	if old, ok := sr.canon[name]; ok && old.cols() != cm.cols() {
		return fmt.Errorf("shardserve: model %q dims changed %d -> %d",
			name, old.cols(), cm.cols())
	}
	k, d := cm.rows(), cm.cols()
	shards := sr.machines
	if k < shards {
		shards = k
	}
	parts := dist.Partition(k, shards)
	live := sr.livePlacementLocked()
	offsets := make([]int, shards+1)
	reps := make([][]int, shards)
	for s, p := range parts {
		offsets[s+1] = p.Hi
		reps[s] = topology.Place(s, sr.replicas, live)
		key := ShardKey(name, s)
		for _, m := range reps[s] {
			if cur, ok := sr.regs[m].Get(key); ok && cur.Version >= cm.version {
				continue // already holds this shard at this version (rebalance path)
			}
			var err error
			if cm.elem == 4 {
				view := &matrix.Mat[float32]{RowsN: p.Rows(), ColsN: d, Data: cm.c32.Data[p.Lo*d : p.Hi*d]}
				_, err = serve.RestoreOf(sr.regs[m], key, cm.version, cm.node, view)
			} else {
				_, err = sr.regs[m].Restore(key, cm.version, cm.node, p.View(cm.c64))
			}
			if err != nil {
				return err
			}
			// Cluster mode: machine m is a peer process — push the shard
			// payload to it too. The local restore above stays the
			// version bookkeeping (and the canonical fallback the next
			// rebalance re-pushes from); a push to a dead peer fails
			// non-fatally, since healing is exactly what routes around it.
			if sr.remote != nil && !sr.remote.LocalMachine(m) {
				var payload []byte
				if cm.elem == 4 {
					payload = netcluster.AppendFloats(nil, cm.c32.Data[p.Lo*d:p.Hi*d])
				} else {
					payload = netcluster.AppendFloats(nil, cm.c64.Data[p.Lo*d:p.Hi*d])
				}
				if perr := sr.remote.RestoreRemote(m, key, cm.version, cm.node, byte(cm.elem), p.Rows(), d, payload); perr != nil {
					telPushErrors.Inc()
				}
			}
			moved := uint64(p.Rows() * d * cm.elem)
			sr.spreadBytes.Add(moved)
			telSpreadBytes.Add(moved)
		}
	}
	// Drop copies outside the new placement: machines a shard moved
	// away from, and whole shard groups stranded by a shrinking k. An
	// in-flight fan-out holding the old plan that races a drop fails
	// over, then retries on the gen bump.
	oldShards := shards
	if sp, ok := sr.splits[name]; ok {
		if n := len(sp.offsets) - 1; n > oldShards {
			oldShards = n
		}
	}
	for s := 0; s < oldShards; s++ {
		var want []int
		if s < shards {
			want = reps[s]
		}
		for m := 0; m < sr.machines; m++ {
			placed := false
			for _, w := range want {
				if w == m {
					placed = true
					break
				}
			}
			if !placed {
				sr.dropCopyLocked(m, ShardKey(name, s))
			}
		}
	}
	var gen uint64
	if sp, ok := sr.splits[name]; ok {
		gen = sp.gen + 1
	}
	sr.splits[name] = &split{version: cm.version, gen: gen, offsets: offsets, replicas: reps}
	sr.canon[name] = cm
	telemetry.Log("shardserve", telemetry.SevInfo, "plan installed",
		telemetry.F("model", name), telemetry.F("version", cm.version),
		telemetry.F("gen", gen), telemetry.F("shards", shards),
		telemetry.F("replicas", sr.replicas))
	return nil
}

// rebalance re-spreads every model's shards over the current live set
// from the canonical copies — the self-healing step, run on the
// topology dispatcher after each membership transition. Same-version
// restores skip machines that already hold their shard, so healing
// only copies what actually moved.
func (sr *ShardRegistry) rebalance() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	defer sr.rebalances.Add(1)
	telRebalances.Inc()
	telemetry.Log("shardserve", telemetry.SevInfo, "rebalance",
		telemetry.F("models", len(sr.canon)), telemetry.F("live", len(sr.livePlacementLocked())))
	for name, cm := range sr.canon {
		if err := sr.restoreLocked(name, cm); err != nil {
			// Re-spreading a version that already published cannot
			// change dims and never moves a version backwards.
			panic(fmt.Sprintf("shardserve: rebalance %q v%d: %v", name, cm.version, err))
		}
	}
}

// ShardHealth describes one shard group's replica liveness.
type ShardHealth struct {
	Model string `json:"model"`
	Shard int    `json:"shard"`
	// Lo/Hi are the group's global centroid rows [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Placed is how many replicas the current plan holds; Want is the
	// configured replication factor; Live is how many placed replicas
	// sit on machines currently answering.
	Placed int `json:"placed"`
	Want   int `json:"want"`
	Live   int `json:"live"`
}

// CopiesOn counts the shard copies the current plans place on machine
// m — the coordinator-side "live shards per rank" figure the
// federated /v1/cluster/stats reports.
func (sr *ShardRegistry) CopiesOn(m int) int {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	n := 0
	for _, sp := range sr.splits {
		for _, ms := range sp.replicas {
			for _, r := range ms {
				if r == m {
					n++
				}
			}
		}
	}
	return n
}

// GroupHealth reports every shard group of every model, sorted by
// model name then shard index.
func (sr *ShardRegistry) GroupHealth() []ShardHealth {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	names := make([]string, 0, len(sr.splits))
	for name := range sr.splits {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []ShardHealth
	for _, name := range names {
		sp := sr.splits[name]
		for s, ms := range sp.replicas {
			h := ShardHealth{
				Model: name, Shard: s,
				Lo: sp.offsets[s], Hi: sp.offsets[s+1],
				Placed: len(ms), Want: sr.replicas,
			}
			for _, m := range ms {
				if !sr.down[m].Load() {
					h.Live++
				}
			}
			out = append(out, h)
		}
	}
	return out
}

// Health classifies the shard groups that are not fully healthy:
// degraded groups still answer (>= 1 live replica) but sit below the
// configured replication factor; unavailable groups have no live
// replica, so their centroid range cannot answer and fan-outs touching
// them fail with ErrShardUnavailable until a replica returns.
func (sr *ShardRegistry) Health() (degraded, unavailable []ShardHealth) {
	for _, h := range sr.GroupHealth() {
		switch {
		case h.Live == 0:
			unavailable = append(unavailable, h)
		case h.Live < h.Want:
			degraded = append(degraded, h)
		}
	}
	return degraded, unavailable
}

// Drop removes the model from every machine registry and the plan
// table.
func (sr *ShardRegistry) Drop(name string) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sp, ok := sr.splits[name]
	if !ok {
		return
	}
	for s := 0; s < len(sp.offsets)-1; s++ {
		for m := range sr.regs {
			sr.dropCopyLocked(m, ShardKey(name, s))
		}
	}
	delete(sr.splits, name)
	delete(sr.canon, name)
}

// dropCopyLocked removes machine m's copy of a shard key, mirroring
// the drop to m's peer process in cluster mode. Caller holds sr.mu.
func (sr *ShardRegistry) dropCopyLocked(m int, key string) {
	sr.regs[m].Drop(key)
	if sr.remote != nil && !sr.remote.LocalMachine(m) {
		if err := sr.remote.DropRemote(m, key); err != nil {
			telPushErrors.Inc()
		}
	}
}
