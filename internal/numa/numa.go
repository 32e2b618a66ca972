// Package numa models a NUMA machine: a set of nodes, each with local
// cores and a local memory bank reached over a shared per-node link.
//
// Go offers no portable thread pinning or memory binding, so the paper's
// NUMA effects are reproduced in a simulated cost layer: data rows are
// *placed* on nodes by a Placement policy, workers carry a node
// affinity, and touching rows that live on a different node pays a
// remote transfer through the owning node's interconnect link (a
// simclock.Resource). Contention on those links — many threads hammering
// one bank — is what separates the NUMA-aware and NUMA-oblivious curves
// in the paper's Figure 4.
package numa

import (
	"fmt"
	"math/rand"

	"knor/internal/simclock"
)

// Topology describes a simulated NUMA machine.
type Topology struct {
	Nodes        int // number of NUMA nodes (sockets)
	CoresPerNode int // physical cores per node
}

// DefaultTopology mirrors the paper's evaluation machine: four sockets
// of twelve cores (48 physical cores).
func DefaultTopology() Topology {
	return Topology{Nodes: 4, CoresPerNode: 12}
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("numa: invalid topology %+v", t)
	}
	return nil
}

// TotalCores returns the number of physical cores in the machine.
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode }

// NodeOfThread returns the node a thread is bound to under the paper's
// scheme (threads are divided equally across nodes in contiguous
// blocks, Figure 1).
func (t Topology) NodeOfThread(tid, threads int) int {
	if threads <= 0 {
		panic("numa: threads must be positive")
	}
	perNode := (threads + t.Nodes - 1) / t.Nodes
	n := tid / perNode
	if n >= t.Nodes {
		n = t.Nodes - 1
	}
	return n
}

// PlacementPolicy selects where rows live.
type PlacementPolicy int

const (
	// PlacePartitioned splits rows equally across nodes in contiguous
	// ranges and is the knori default (Figure 1).
	PlacePartitioned PlacementPolicy = iota
	// PlaceSingleBank puts every row on node 0, the behaviour of a
	// NUMA-oblivious contiguous malloc on first touch.
	PlaceSingleBank
	// PlaceInterleaved stripes rows round-robin across nodes, the
	// behaviour of an interleaving allocator.
	PlaceInterleaved
	// PlaceRandom scatters rows uniformly at random.
	PlaceRandom
)

// String implements fmt.Stringer.
func (p PlacementPolicy) String() string {
	switch p {
	case PlacePartitioned:
		return "partitioned"
	case PlaceSingleBank:
		return "single-bank"
	case PlaceInterleaved:
		return "interleaved"
	case PlaceRandom:
		return "random"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// Placement records which node owns each contiguous block of rows. The
// block granularity matches the scheduler's task granularity so owner
// lookups stay O(1) per task.
type Placement struct {
	topo      Topology
	policy    PlacementPolicy
	rows      int
	blockSize int
	owner     []int // node per block
}

// NewPlacement places rows on the topology under the given policy.
// blockSize is the contiguous run of rows placed together; it must
// divide the machine's work granularity (tasks), not n.
func NewPlacement(topo Topology, policy PlacementPolicy, rows, blockSize int, seed int64) *Placement {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if rows < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("numa: bad placement rows=%d block=%d", rows, blockSize))
	}
	nb := (rows + blockSize - 1) / blockSize
	p := &Placement{topo: topo, policy: policy, rows: rows, blockSize: blockSize, owner: make([]int, nb)}
	switch policy {
	case PlacePartitioned:
		// Equal contiguous shares per node, like the paper's Figure 1.
		for b := range p.owner {
			node := b * topo.Nodes / max(nb, 1)
			if node >= topo.Nodes {
				node = topo.Nodes - 1
			}
			p.owner[b] = node
		}
	case PlaceSingleBank:
		for b := range p.owner {
			p.owner[b] = 0
		}
	case PlaceInterleaved:
		for b := range p.owner {
			p.owner[b] = b % topo.Nodes
		}
	case PlaceRandom:
		rng := rand.New(rand.NewSource(seed))
		for b := range p.owner {
			p.owner[b] = rng.Intn(topo.Nodes)
		}
	default:
		panic("numa: unknown placement policy")
	}
	return p
}

// Rows returns the number of rows placed.
func (p *Placement) Rows() int { return p.rows }

// BlockSize returns the placement granularity in rows.
func (p *Placement) BlockSize() int { return p.blockSize }

// Policy returns the placement policy.
func (p *Placement) Policy() PlacementPolicy { return p.policy }

// NodeOfRow returns the node owning a row.
func (p *Placement) NodeOfRow(row int) int {
	if row < 0 || row >= p.rows {
		panic(fmt.Sprintf("numa: row %d out of range [0,%d)", row, p.rows))
	}
	return p.owner[row/p.blockSize]
}

// NodeOfBlock returns the node owning block b.
func (p *Placement) NodeOfBlock(b int) int { return p.owner[b] }

// NumBlocks returns the number of placement blocks.
func (p *Placement) NumBlocks() int { return len(p.owner) }

// NodeShare returns, for each node, the fraction of rows it owns.
func (p *Placement) NodeShare() []float64 {
	counts := make([]float64, p.topo.Nodes)
	for b, node := range p.owner {
		lo := b * p.blockSize
		hi := lo + p.blockSize
		if hi > p.rows {
			hi = p.rows
		}
		counts[node] += float64(hi - lo)
	}
	if p.rows > 0 {
		for i := range counts {
			counts[i] /= float64(p.rows)
		}
	}
	return counts
}

// Machine bundles a topology with its simulated memory links and counts
// local/remote traffic. One Machine is shared by all workers of a run.
type Machine struct {
	Topo  Topology
	Model simclock.CostModel
	links []*simclock.Resource // one per node: path into that node's bank

	statsMu     chan struct{} // 1-token semaphore: cheap, race-free counters
	localBytes  uint64
	remoteBytes uint64
}

// NewMachine builds a simulated machine over the topology.
func NewMachine(topo Topology, model simclock.CostModel) *Machine {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Topo: topo, Model: model, statsMu: make(chan struct{}, 1)}
	m.statsMu <- struct{}{}
	m.links = make([]*simclock.Resource, topo.Nodes)
	for i := range m.links {
		m.links[i] = simclock.NewResource(fmt.Sprintf("numa-link-%d", i))
	}
	return m
}

// Link returns the interconnect link into node n's memory bank.
func (m *Machine) Link(n int) *simclock.Resource { return m.links[n] }

// TouchAsync charges a read of `bytes` bytes that live on node owner,
// issued at simulated time start from a worker bound to node at, and
// returns the time the transfer finishes. Local reads stream from the
// local bank at LocalBandwidth with no queuing (local banks have enough
// channels for their own cores); remote reads pay latency plus a
// serialised transfer through the owning node's link. No clock is
// advanced: engines that overlap streamed reads with computation
// (hardware prefetch hides transfer behind the distance kernel) take
// max(computeEnd, TouchAsync(...)).
func (m *Machine) TouchAsync(start float64, at, owner int, bytes int) float64 {
	if bytes <= 0 {
		return start
	}
	if at == owner {
		m.addStats(uint64(bytes), 0)
		return start + float64(bytes)/m.Model.LocalBandwidth
	}
	dur := float64(bytes) / m.Model.RemoteBandwidth
	end := m.links[owner].Acquire(start+m.Model.RemoteLatency, dur)
	m.addStats(0, uint64(bytes))
	return end
}

func (m *Machine) addStats(local, remote uint64) {
	<-m.statsMu
	m.localBytes += local
	m.remoteBytes += remote
	m.statsMu <- struct{}{}
}

// Traffic reports cumulative local and remote bytes touched.
func (m *Machine) Traffic() (local, remote uint64) {
	<-m.statsMu
	local, remote = m.localBytes, m.remoteBytes
	m.statsMu <- struct{}{}
	return
}

// ResetStats zeroes traffic counters and link statistics.
func (m *Machine) ResetStats() {
	<-m.statsMu
	m.localBytes, m.remoteBytes = 0, 0
	m.statsMu <- struct{}{}
	for _, l := range m.links {
		l.Reset()
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
