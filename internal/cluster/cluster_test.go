package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"knor/internal/simclock"
)

func model() simclock.CostModel { return simclock.DefaultCostModel() }

func TestBcastCost(t *testing.T) {
	m := model()
	n := New(8, m)
	after := n.Bcast(0, 1000)
	want := 3 * (m.NetLatency + 1000/m.NetBandwidth) // ceil(log2(8)) = 3 rounds
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("bcast = %g, want %g", after, want)
	}
}

func TestBcastSingleMachineFree(t *testing.T) {
	n := New(1, model())
	if after := n.Bcast(0, 1<<20); after != 0 {
		t.Fatalf("single-machine bcast cost %g", after)
	}
}

func TestRingAllreduceCost(t *testing.T) {
	m := model()
	for _, M := range []int{2, 4, 8} {
		n := New(M, m)
		after := n.RingAllreduce(1 << 20)
		seg := float64((1<<20 + M - 1) / M)
		want := m.NetSetup + float64(2*(M-1))*(m.NetLatency+seg/m.NetBandwidth)
		if math.Abs(after-want) > 1e-12 {
			t.Fatalf("M=%d: ring = %g, want %g", M, after, want)
		}
		for i := 0; i < M; i++ {
			if n.Clock(i).Now() != after {
				t.Fatalf("M=%d: machine %d desynced", M, i)
			}
			// Bandwidth optimality: each NIC moved ~2·bytes/M·(M-1).
			wantBusy := float64(2*(M-1)) * seg / m.NetBandwidth
			if math.Abs(n.NIC(i).BusyTime()-wantBusy) > 1e-12 {
				t.Fatalf("M=%d: NIC %d busy %g, want %g", M, i, n.NIC(i).BusyTime(), wantBusy)
			}
		}
	}
}

func TestRingAllreduceSingleMachineFree(t *testing.T) {
	n := New(1, model())
	if after := n.RingAllreduce(1 << 20); after != 0 {
		t.Fatalf("single-machine ring cost %g", after)
	}
}

func TestGatherSerialisesAtRoot(t *testing.T) {
	m := model()
	M := 8
	n := New(M, m)
	end := n.Gather(0, 1<<20)
	// 7 senders × transfer time must serialise through root's NIC.
	per := float64(1<<20) / m.NetBandwidth
	if end < 7*per {
		t.Fatalf("gather overlapped at root: %g < %g", end, 7*per)
	}
	// The ring allreduce of the same payload must be cheaper for large
	// M — the master bottleneck in one inequality.
	ar := New(M, m).RingAllreduce(1 << 20)
	if ar >= end {
		t.Fatalf("ring allreduce (%g) not cheaper than gather (%g)", ar, end)
	}
}

func TestGatherAdvancesSenders(t *testing.T) {
	n := New(3, model())
	n.Gather(0, 1000)
	for i := 1; i < 3; i++ {
		if n.Clock(i).Now() == 0 {
			t.Fatalf("sender %d clock unchanged", i)
		}
	}
}

func TestMasterDispatchSerialises(t *testing.T) {
	m := model()
	n := New(4, m)
	n.MasterDispatch(0, 100, 1e-3)
	// 100 tasks × 1ms through one NIC = at least 100ms at the master.
	if n.Clock(0).Now() < 0.1 {
		t.Fatalf("dispatch too cheap: %g", n.Clock(0).Now())
	}
	// Workers must have received their dispatches.
	for i := 1; i < 4; i++ {
		if n.Clock(i).Now() == 0 {
			t.Fatalf("worker %d never dispatched", i)
		}
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, model())
}

// Property: collectives never move any clock backwards and always leave
// Bcast/RingAllreduce participants synchronised.
func TestCollectiveMonotoneProperty(t *testing.T) {
	f := func(machinesRaw, opsRaw uint8, seeds []uint8) bool {
		M := int(machinesRaw)%8 + 1
		n := New(M, model())
		prevMax := 0.0
		for i, s := range seeds {
			op := int(s) % 3
			n.Clock(i % M).Advance(float64(s) * 1e-6)
			switch op {
			case 0:
				n.RingAllreduce(int(s) * 100)
			case 1:
				n.Bcast(i%M, int(s)*100)
			case 2:
				n.Gather(i%M, int(s)*100)
			}
			max := 0.0
			sync := true
			first := n.Clock(0).Now()
			for j := 0; j < M; j++ {
				now := n.Clock(j).Now()
				if now > max {
					max = now
				}
				if now != first {
					sync = false
				}
			}
			if max < prevMax {
				return false
			}
			if op != 2 && !sync {
				return false // gather is the only non-synchronising op
			}
			prevMax = max
		}
		_ = opsRaw
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
