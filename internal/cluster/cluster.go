// Package cluster simulates the multi-machine substrate knord runs on:
// M machines with one NIC each on a switched network, plus the MPI-style
// collectives the paper's distributed modules use (broadcast, ring
// allreduce, gather, master dispatch).
//
// Cost structure is the standard alpha-beta model: one hop costs
// NetLatency + bytes/NetBandwidth. RingAllreduce is the
// bandwidth-optimal ring knord's and the MPI mode's iteration merge use
// (2(M-1) rounds of bytes/M segments). Gather serialises all senders
// through the root's NIC — the master bottleneck that separates
// decentralised knord from master-worker designs in Figures 11–12.
//
// Cost convention: Gather and Bcast charge pure alpha-beta wire costs;
// the software collective-initiation setup (CostModel.NetSetup) is the
// caller's to charge per collective. RingAllreduce is the
// self-contained collective: it charges its own setup and books
// transfer time on every NIC Resource.
//
// The package also holds the serving layer's argmin fold (MinPair and
// CombineMin, minreduce.go): a value-only reduction the sharded fan-out
// runs at the coordinator, with no simulated cost.
package cluster

import (
	"fmt"
	"math"

	"knor/internal/simclock"
)

// Network is a simulated cluster.
type Network struct {
	M     int
	Model simclock.CostModel
	nics  []*simclock.Resource

	clocks []simclock.Clock // one per machine
}

// New creates a network of m machines at simulated time zero.
func New(m int, model simclock.CostModel) *Network {
	if m <= 0 {
		panic("cluster: need at least one machine")
	}
	n := &Network{M: m, Model: model, clocks: make([]simclock.Clock, m)}
	n.nics = make([]*simclock.Resource, m)
	for i := range n.nics {
		n.nics[i] = simclock.NewResource(fmt.Sprintf("nic-%d", i))
	}
	return n
}

// Clock returns machine i's clock.
func (n *Network) Clock(i int) *simclock.Clock { return &n.clocks[i] }

// NIC returns machine i's NIC resource.
func (n *Network) NIC(i int) *simclock.Resource { return n.nics[i] }

// hop returns the cost of moving `bytes` across one link.
func (n *Network) hop(bytes int) float64 {
	return n.Model.NetLatency + float64(bytes)/n.Model.NetBandwidth
}

// maxClock returns the latest machine time.
func (n *Network) maxClock() float64 {
	m := n.clocks[0].Now()
	for i := 1; i < n.M; i++ {
		if t := n.clocks[i].Now(); t > m {
			m = t
		}
	}
	return m
}

// rounds returns ceil(log2(M)), the stage count of tree collectives.
func (n *Network) rounds() int {
	if n.M <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n.M))))
}

// Bcast broadcasts `bytes` from root along a binomial tree. All
// machines end synchronised at the completion time.
func (n *Network) Bcast(root, bytes int) float64 {
	start := n.clocks[root].Now()
	// Receivers can't finish before they are ready themselves.
	t := start + float64(n.rounds())*n.hop(bytes)
	if mx := n.maxClock(); mx > t {
		t = mx
	}
	for i := range n.clocks {
		n.clocks[i].Reset(t)
	}
	return t
}

// RingAllreduce reduces `bytes` across all machines with the
// bandwidth-optimal ring algorithm knord's collectives use: the payload
// is split into M segments and 2(M-1) steps (a reduce-scatter followed
// by an allgather) each ship one segment to the ring neighbour, so
// every NIC moves 2·(M-1)/M·bytes in total regardless of cluster size.
// All M NICs are busy in every step — the transfer time is charged on
// each machine's Resource for utilisation reporting — and the
// collective synchronises every machine at the returned completion
// time. A single machine pays nothing.
func (n *Network) RingAllreduce(bytes int) float64 {
	t := n.maxClock()
	if n.M > 1 {
		t += n.Model.NetSetup
		seg := (bytes + n.M - 1) / n.M
		xfer := float64(seg) / n.Model.NetBandwidth
		for s := 0; s < 2*(n.M-1); s++ {
			for i := range n.nics {
				n.nics[i].Acquire(t, xfer)
			}
			t += n.Model.NetLatency + xfer
		}
	}
	for i := range n.clocks {
		n.clocks[i].Reset(t)
	}
	return t
}

// Gather sends `bytes` from every non-root machine to root, serialised
// through root's NIC (the master-bottleneck pattern). Root's clock
// advances to the last arrival; senders advance past their own send.
func (n *Network) Gather(root, bytes int) float64 {
	end := n.clocks[root].Now()
	for i := 0; i < n.M; i++ {
		if i == root {
			continue
		}
		sendStart := n.clocks[i].Now() + n.Model.NetLatency
		done := n.nics[root].Acquire(sendStart, float64(bytes)/n.Model.NetBandwidth)
		n.clocks[i].AdvanceTo(done)
		if done > end {
			end = done
		}
	}
	n.clocks[root].AdvanceTo(end)
	return end
}

// MasterDispatch models a centralised scheduler handing out `tasks`
// work items: each dispatch serialises through the root NIC for
// overhead seconds. Workers pick tasks up round-robin; every machine's
// clock advances past its last dispatch. This is the per-task driver
// overhead of master-worker frameworks.
func (n *Network) MasterDispatch(root, tasks int, overhead float64) {
	for t := 0; t < tasks; t++ {
		w := t % n.M
		done := n.nics[root].Acquire(n.clocks[root].Now(), overhead)
		n.clocks[root].AdvanceTo(done)
		n.clocks[w].AdvanceTo(done + n.Model.NetLatency)
	}
}
