package numa

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"knor/internal/simclock"
)

func TestTopologyValidate(t *testing.T) {
	if err := DefaultTopology().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Topology{Nodes: 0, CoresPerNode: 4}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-node topology validated")
	}
	if got := DefaultTopology().TotalCores(); got != 48 {
		t.Fatalf("TotalCores = %d, want 48", got)
	}
}

func TestNodeOfThread(t *testing.T) {
	topo := Topology{Nodes: 4, CoresPerNode: 12}
	// 16 threads over 4 nodes: 4 per node, contiguous blocks.
	for tid := 0; tid < 16; tid++ {
		want := tid / 4
		if got := topo.NodeOfThread(tid, 16); got != want {
			t.Fatalf("NodeOfThread(%d,16) = %d, want %d", tid, got, want)
		}
	}
	// Threads not divisible by nodes still map in range.
	for tid := 0; tid < 7; tid++ {
		got := topo.NodeOfThread(tid, 7)
		if got < 0 || got >= topo.Nodes {
			t.Fatalf("NodeOfThread(%d,7) = %d out of range", tid, got)
		}
	}
	// One thread lands on node 0.
	if got := topo.NodeOfThread(0, 1); got != 0 {
		t.Fatalf("single thread on node %d", got)
	}
}

func TestPlacementPartitioned(t *testing.T) {
	topo := Topology{Nodes: 4, CoresPerNode: 2}
	p := NewPlacement(topo, PlacePartitioned, 1000, 10, 1)
	if p.NumBlocks() != 100 {
		t.Fatalf("blocks = %d", p.NumBlocks())
	}
	// Contiguous, non-decreasing node assignment covering all nodes.
	prev := 0
	seen := map[int]bool{}
	for b := 0; b < p.NumBlocks(); b++ {
		n := p.NodeOfBlock(b)
		if n < prev {
			t.Fatalf("partitioned placement not contiguous at block %d", b)
		}
		prev = n
		seen[n] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d nodes used", len(seen))
	}
	// Shares are equal within one block.
	for node, share := range p.NodeShare() {
		if math.Abs(share-0.25) > 0.011 {
			t.Fatalf("node %d share %g", node, share)
		}
	}
}

func TestPlacementSingleBank(t *testing.T) {
	p := NewPlacement(DefaultTopology(), PlaceSingleBank, 500, 8, 1)
	for r := 0; r < 500; r += 7 {
		if p.NodeOfRow(r) != 0 {
			t.Fatalf("row %d not on node 0", r)
		}
	}
	share := p.NodeShare()
	if share[0] != 1.0 {
		t.Fatalf("node0 share %g", share[0])
	}
}

func TestPlacementInterleaved(t *testing.T) {
	topo := Topology{Nodes: 3, CoresPerNode: 1}
	p := NewPlacement(topo, PlaceInterleaved, 90, 10, 1)
	for b := 0; b < p.NumBlocks(); b++ {
		if p.NodeOfBlock(b) != b%3 {
			t.Fatalf("block %d on node %d", b, p.NodeOfBlock(b))
		}
	}
}

func TestPlacementRandomDeterministic(t *testing.T) {
	a := NewPlacement(DefaultTopology(), PlaceRandom, 1000, 10, 42)
	b := NewPlacement(DefaultTopology(), PlaceRandom, 1000, 10, 42)
	for i := 0; i < a.NumBlocks(); i++ {
		if a.NodeOfBlock(i) != b.NodeOfBlock(i) {
			t.Fatal("random placement not reproducible for same seed")
		}
	}
}

func TestPlacementRowBounds(t *testing.T) {
	p := NewPlacement(DefaultTopology(), PlacePartitioned, 10, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row did not panic")
		}
	}()
	p.NodeOfRow(10)
}

func TestPlacementString(t *testing.T) {
	names := map[PlacementPolicy]string{
		PlacePartitioned: "partitioned",
		PlaceSingleBank:  "single-bank",
		PlaceInterleaved: "interleaved",
		PlaceRandom:      "random",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestMachineTouchLocalVsRemote(t *testing.T) {
	model := simclock.DefaultCostModel()
	m := NewMachine(Topology{Nodes: 2, CoresPerNode: 2}, model)
	localT := m.TouchAsync(0, 0, 0, 1<<20)  // local
	remoteT := m.TouchAsync(0, 0, 1, 1<<20) // remote
	if remoteT <= localT {
		t.Fatalf("remote %g not slower than local %g", remoteT, localT)
	}
	local, remote := m.Traffic()
	if local != 1<<20 || remote != 1<<20 {
		t.Fatalf("traffic local=%d remote=%d", local, remote)
	}
}

func TestMachineRemoteContention(t *testing.T) {
	// Two workers hitting the same remote bank serialise on its link;
	// total elapsed must be at least the sum of transfer durations.
	model := simclock.DefaultCostModel()
	m := NewMachine(Topology{Nodes: 2, CoresPerNode: 2}, model)
	bytes := 1 << 20
	per := float64(bytes) / model.RemoteBandwidth
	e1 := m.TouchAsync(0, 0, 1, bytes)
	e2 := m.TouchAsync(0, 0, 1, bytes)
	latest := math.Max(e1, e2)
	if latest < 2*per {
		t.Fatalf("contended remote reads overlapped: %g < %g", latest, 2*per)
	}
}

func TestMachineTouchZeroBytes(t *testing.T) {
	m := NewMachine(DefaultTopology(), simclock.DefaultCostModel())
	if end := m.TouchAsync(0, 0, 3, 0); end != 0 {
		t.Fatalf("zero-byte touch took time: ends at %g", end)
	}
}

func TestMachineResetStats(t *testing.T) {
	m := NewMachine(DefaultTopology(), simclock.DefaultCostModel())
	m.TouchAsync(0, 0, 1, 100)
	m.ResetStats()
	l, r := m.Traffic()
	if l != 0 || r != 0 {
		t.Fatal("ResetStats left traffic")
	}
	if m.Link(1).BusyTime() != 0 {
		t.Fatal("ResetStats left link busy time")
	}
}

func TestMachineConcurrentTouch(t *testing.T) {
	m := NewMachine(DefaultTopology(), simclock.DefaultCostModel())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := 0.0
			for i := 0; i < 100; i++ {
				at = m.TouchAsync(at, w%4, (w+1)%4, 64)
			}
		}(w)
	}
	wg.Wait()
	local, remote := m.Traffic()
	if local+remote != 8*100*64 {
		t.Fatalf("traffic sum = %d, want %d", local+remote, 8*100*64)
	}
}

// Property: every placement policy assigns every block a node in range
// and NodeShare sums to 1.
func TestPlacementProperty(t *testing.T) {
	f := func(rowsRaw uint16, blockRaw uint8, policyRaw uint8, seed int64) bool {
		rows := int(rowsRaw)%5000 + 1
		block := int(blockRaw)%64 + 1
		policy := PlacementPolicy(int(policyRaw) % 4)
		topo := Topology{Nodes: 4, CoresPerNode: 4}
		p := NewPlacement(topo, policy, rows, block, seed)
		for b := 0; b < p.NumBlocks(); b++ {
			n := p.NodeOfBlock(b)
			if n < 0 || n >= topo.Nodes {
				return false
			}
		}
		sum := 0.0
		for _, s := range p.NodeShare() {
			sum += s
		}
		return math.Abs(sum-1.0) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: thread-to-node mapping is always in range and monotone
// non-decreasing in thread id.
func TestNodeOfThreadProperty(t *testing.T) {
	f := func(threadsRaw uint8) bool {
		threads := int(threadsRaw)%128 + 1
		topo := Topology{Nodes: 4, CoresPerNode: 12}
		prev := 0
		for tid := 0; tid < threads; tid++ {
			n := topo.NodeOfThread(tid, threads)
			if n < 0 || n >= topo.Nodes || n < prev {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTouchAsyncMatchesTouchTotals(t *testing.T) {
	model := simclock.DefaultCostModel()
	m := NewMachine(Topology{Nodes: 2, CoresPerNode: 2}, model)
	// Local: completion is start + bytes/localBW, no queueing.
	end := m.TouchAsync(1.0, 0, 0, 1<<20)
	want := 1.0 + float64(1<<20)/model.LocalBandwidth
	if math.Abs(end-want) > 1e-15 {
		t.Fatalf("local async end %g want %g", end, want)
	}
	// Remote: queued on the owner's link, latency added.
	e1 := m.TouchAsync(0, 0, 1, 1<<20)
	e2 := m.TouchAsync(0, 0, 1, 1<<20)
	if e2 <= e1 {
		t.Fatalf("remote async not serialised: %g then %g", e1, e2)
	}
	local, remote := m.Traffic()
	if local != 1<<20 || remote != 2<<20 {
		t.Fatalf("traffic local=%d remote=%d", local, remote)
	}
	// Zero bytes: no time, no traffic.
	if end := m.TouchAsync(3, 0, 1, 0); end != 3 {
		t.Fatalf("zero-byte async end %g", end)
	}
}
