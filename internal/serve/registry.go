package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/telemetry"
)

// Model is one immutable published snapshot of a centroid set. Its
// centroids are stored at float64 only, the width the registry keeps,
// persists and spreads to shards; float32 serving reads a mirror built
// once per snapshot (centroidsOf). The Centroids matrix and NormsSq
// slice must be treated as read-only by every consumer; the Registry
// guarantees no writer retains them.
type Model struct {
	Name    string
	Version int // 1-based, monotonically increasing per name
	// Centroids is the k×d centroid matrix (float64, the canonical
	// storage every trainer publishes).
	Centroids *matrix.Dense
	// NormsSq caches ‖c‖² per centroid for the GEMM distance identity,
	// computed once at publish time instead of once per batch.
	NormsSq []float64
	// PublishedAt stamps the snapshot for age-based retention.
	PublishedAt time.Time
	// Node is the simulated NUMA node the model's shard is pinned to,
	// assigned round-robin at first publish and stable across
	// versions. It is surfaced by the serving API and kept in the
	// snapshot format; nothing in the serving path reads it.
	Node int

	// c32/n32 mirror Centroids/NormsSq at float32 for the Precision32
	// assign path, built lazily on first float32 access (mirrorOnce) so
	// float64-only deployments never pay the +50% centroid memory, and
	// float32 flushes pay the conversion once per snapshot, not per
	// flush.
	mirrorOnce sync.Once
	c32        *matrix.Mat[float32]
	n32        []float32
}

// K returns the number of centroids.
func (m *Model) K() int { return m.Centroids.Rows() }

// Dims returns the centroid dimensionality.
func (m *Model) Dims() int { return m.Centroids.Cols() }

// centroidsOf returns the model's centroids and cached ‖c‖² at the
// requested element type, building the float32 mirror on first use.
func centroidsOf[T blas.Float](m *Model) (*matrix.Mat[T], []T) {
	var z T
	if _, ok := any(z).(float32); ok {
		m.mirrorOnce.Do(func() {
			m.c32 = matrix.Convert[float32](m.Centroids)
			m.n32 = make([]float32, m.c32.Rows())
			blas.RowNormsSq(m.c32.Data, m.c32.Rows(), m.c32.Cols(), m.n32)
		})
		return any(m.c32).(*matrix.Mat[T]), any(m.n32).([]T)
	}
	return any(m.Centroids).(*matrix.Mat[T]), any(m.NormsSq).([]T)
}

// Retention bounds the per-model version history the registry keeps: a
// stream updater auto-publishing forever must not grow memory without
// bound. Snapshots already handed out stay valid (immutable); the
// registry merely forgets them. The latest version and pinned versions
// are never evicted.
type Retention struct {
	// MaxVersions bounds retained *unpinned* versions per model (<= 0
	// uses the default of 8). Pinned versions are kept on top of the
	// bound and do not count against it.
	MaxVersions int
	// MaxAge evicts unpinned non-latest versions older than this at
	// publish time and on EvictExpired sweeps (0 = no age bound).
	MaxAge time.Duration
}

// maxVersions is the historical retention bound.
const maxVersions = 8

// Registry holds named, versioned models. Publish is copy-on-write:
// the input centroids are cloned into a fresh immutable Model, the
// previous version stays readable, and Get hands out the snapshot
// pointer without copying — so a query path never blocks on, or
// observes, an in-progress training step. Retained history is bounded
// by Retention (count and age), with Pin exempting versions a consumer
// wants addressable indefinitely.
type Registry struct {
	nodes int // NUMA nodes to pin shards across (>=1)

	mu        sync.RWMutex
	latest    map[string]*Model
	versions  map[string][]*Model
	pins      map[string]map[int]bool
	retention Retention
	nextNode  int
	onPublish []func(*Model)

	// names holds every name in latest, for known: a read no publish
	// in progress holds up.
	names sync.Map
}

// NewRegistry builds a registry that pins model shards round-robin
// across the given number of simulated NUMA nodes (values < 1 are
// treated as 1), with the default retention (8 versions, no age bound).
func NewRegistry(nodes int) *Registry {
	if nodes < 1 {
		nodes = 1
	}
	return &Registry{
		nodes:    nodes,
		latest:   map[string]*Model{},
		versions: map[string][]*Model{},
		pins:     map[string]map[int]bool{},
	}
}

// SetRetention replaces the retention policy and immediately applies it
// to every model.
func (r *Registry) SetRetention(p Retention) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retention = p
	now := time.Now()
	for name := range r.versions {
		r.evictLocked(name, now)
	}
}

// newModel builds the immutable snapshot for a publish: a clone of the
// centroids and their norms. The float32 mirror stays lazy.
func newModel(name string, centroids *matrix.Dense) *Model {
	m := &Model{Name: name, PublishedAt: time.Now(), Centroids: centroids.Clone()}
	m.NormsSq = make([]float64, m.Centroids.Rows())
	blas.RowNormsSq(m.Centroids.Data, m.Centroids.Rows(), m.Centroids.Cols(), m.NormsSq)
	return m
}

// add installs a fully built snapshot under the registry lock. A
// restore (version > 0) keeps the explicit version/node and must land
// after the current latest; a publish (version == 0) increments the
// latest version and inherits (or round-robin-assigns) the node pin.
func (r *Registry) add(m *Model, version, node int) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, exists := r.latest[m.Name]
	if exists && prev.Dims() != m.Dims() {
		return nil, fmt.Errorf("serve: model %q dims changed %d -> %d", m.Name, prev.Dims(), m.Dims())
	}
	switch {
	case version > 0:
		if exists && version <= prev.Version {
			return nil, fmt.Errorf("serve: model %q restore version %d not after latest %d",
				m.Name, version, prev.Version)
		}
		m.Version, m.Node = version, node
	case exists:
		m.Version, m.Node = prev.Version+1, prev.Node
	default:
		m.Version = 1
		m.Node = r.nextNode % r.nodes
		r.nextNode++
	}
	r.latest[m.Name] = m
	r.names.Store(m.Name, struct{}{})
	r.versions[m.Name] = append(r.versions[m.Name], m)
	r.evictLocked(m.Name, m.PublishedAt)
	telPublishes.Inc()
	telemetry.Log("serve", telemetry.SevInfo, "model published",
		telemetry.F("model", m.Name), telemetry.F("version", m.Version),
		telemetry.F("k", m.K()), telemetry.F("d", m.Dims()), telemetry.F("node", m.Node))
	for _, fn := range r.onPublish {
		fn(m)
	}
	return m, nil
}

// Publish clones centroids into a new immutable version of the named
// model and returns the snapshot. The first publish of a name pins the
// model to a NUMA node; later versions inherit the pin so a serving
// shard never migrates mid-flight. Publishing also applies retention to
// the model's history.
func (r *Registry) Publish(name string, centroids *matrix.Dense) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if centroids == nil || centroids.Rows() == 0 || centroids.Cols() == 0 {
		return nil, fmt.Errorf("serve: model %q published with no centroids", name)
	}
	return r.add(newModel(name, centroids), 0, 0)
}

// OnPublish registers fn to run after every successful Publish or
// Restore, while the registry lock is held — hooks therefore observe
// publishes in version order, which the sharded serving layer and the
// persistence layer both rely on. fn must not call back into the
// registry (deadlock) and should be quick; heavy work belongs on the
// hook's own goroutine.
func (r *Registry) OnPublish(fn func(*Model)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onPublish = append(r.onPublish, fn)
}

// Restore republishes a snapshot with an explicit version and node —
// the persistence loader's and shard mirror's entry point, where
// version numbers must survive a restart (Publish would restart them
// at 1). The version must be greater than the model's current latest;
// stale restores are rejected so a mirror replaying a mix of history
// and live publishes converges on the newest snapshot.
func (r *Registry) Restore(name string, version, node int, centroids *matrix.Dense) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if version < 1 {
		return nil, fmt.Errorf("serve: model %q restored with version %d", name, version)
	}
	if centroids == nil || centroids.Rows() == 0 || centroids.Cols() == 0 {
		return nil, fmt.Errorf("serve: model %q restored with no centroids", name)
	}
	return r.add(newModel(name, centroids), version, node)
}

// evictLocked applies the retention policy to one model's history:
// age-expired unpinned versions go first, then the oldest unpinned
// versions beyond the count bound. The latest version never goes.
// Returns the number of versions evicted. Caller holds r.mu.
func (r *Registry) evictLocked(name string, now time.Time) int {
	vs := r.versions[name]
	if len(vs) == 0 {
		return 0
	}
	latest := r.latest[name]
	pins := r.pins[name]
	maxV := r.retention.MaxVersions
	if maxV <= 0 {
		maxV = maxVersions
	}
	evicted := 0
	kept := make([]*Model, 0, len(vs))
	unpinned := 0
	for _, m := range vs {
		if m != latest && !pins[m.Version] &&
			r.retention.MaxAge > 0 && now.Sub(m.PublishedAt) > r.retention.MaxAge {
			evicted++
			continue
		}
		kept = append(kept, m)
		if !pins[m.Version] {
			unpinned++
		}
	}
	// The count bound budgets unpinned versions only (pins are kept on
	// top of it), so pinning history never crowds out recent versions.
	if over := unpinned - maxV; over > 0 {
		// Versions are appended in publish order: the front is oldest.
		trimmed := kept[:0]
		for _, m := range kept {
			if over > 0 && m != latest && !pins[m.Version] {
				over--
				evicted++
				continue
			}
			trimmed = append(trimmed, m)
		}
		kept = trimmed
	}
	r.versions[name] = kept
	if evicted > 0 {
		telEvictions.Add(uint64(evicted))
	}
	return evicted
}

// EvictExpired applies the age bound across every model as of now,
// returning how many versions were evicted. Exposed so servers can
// sweep on a timer (publish-driven eviction alone never ages out a
// model that stopped publishing).
func (r *Registry) EvictExpired(now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.versions {
		n += r.evictLocked(name, now)
	}
	return n
}

// Pin marks a retained version as exempt from eviction (for consumers
// holding long-lived references they want re-addressable by version).
func (r *Registry) Pin(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.versions[name] {
		if m.Version == version {
			if r.pins[name] == nil {
				r.pins[name] = map[int]bool{}
			}
			r.pins[name][version] = true
			return nil
		}
	}
	return fmt.Errorf("serve: model %q has no retained version %d", name, version)
}

// Unpin removes a pin; the version becomes evictable again on the next
// publish or sweep.
func (r *Registry) Unpin(name string, version int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pins[name], version)
}

// Get returns the latest version of the named model.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.latest[name]
	return m, ok
}

// known reports whether the named model has a published version
// without taking the registry lock, so the serving edge turns an
// unknown model away even while a publish holds it.
func (r *Registry) known(name string) bool {
	_, ok := r.names.Load(name)
	return ok
}

// GetVersion returns a specific published version (1-based). Only
// retained snapshots are addressable; evicted ones report not found.
func (r *Registry) GetVersion(name string, version int) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.versions[name] {
		if m.Version == version {
			return m, true
		}
	}
	return nil, false
}

// RetainedVersions lists the retained version numbers of a model in
// publish order.
func (r *Registry) RetainedVersions(name string) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, len(r.versions[name]))
	for i, m := range r.versions[name] {
		out[i] = m.Version
	}
	return out
}

// List returns the latest snapshot of every model, sorted by name.
func (r *Registry) List() []*Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Model, 0, len(r.latest))
	for _, m := range r.latest {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Drop removes all versions of a model (and its pins). Snapshots
// already handed out stay valid (they are immutable); only the registry
// forgets them.
func (r *Registry) Drop(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.latest, name)
	r.names.Delete(name)
	delete(r.versions, name)
	delete(r.pins, name)
}
