package netcluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"knor/internal/cluster"
	"knor/internal/simclock"
)

// forEachTransport runs body over both Transport implementations at
// cluster size m: the simulated group and a real TCP mesh on loopback.
// The transports are passed indexed by rank; body is invoked once per
// implementation and must drive all ranks itself.
func forEachTransport(t *testing.T, m int, body func(t *testing.T, ts []Transport)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) {
		g := NewSimGroup(cluster.New(m, simclock.DefaultCostModel()))
		defer g.Close()
		ts := make([]Transport, m)
		for r := 0; r < m; r++ {
			ts[r] = g.Transport(r)
		}
		body(t, ts)
	})
	t.Run("tcp", func(t *testing.T) {
		tcp := tcpCluster(t, m, "collective")
		ts := make([]Transport, m)
		for r := 0; r < m; r++ {
			ts[r] = tcp[r]
		}
		body(t, ts)
	})
}

// perRank runs fn concurrently on every rank and fails the test on the
// first error.
func perRank(t *testing.T, ts []Transport, fn func(tr Transport) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(ts))
	for r, tr := range ts {
		wg.Add(1)
		go func(r int, tr Transport) {
			defer wg.Done()
			errs[r] = fn(tr)
		}(r, tr)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestAllgather: every rank ends up with every rank's block, indexed
// by origin, on both transports — the property knord's iteration merge
// stands on.
func TestAllgather(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		forEachTransport(t, m, func(t *testing.T, ts []Transport) {
			perRank(t, ts, func(tr Transport) error {
				mine := bytes.Repeat([]byte{byte('A' + tr.Rank())}, 3+tr.Rank())
				blocks, err := Allgather(tr, FrameAccum, 0, 7, mine)
				if err != nil {
					return err
				}
				for s := 0; s < m; s++ {
					want := bytes.Repeat([]byte{byte('A' + s)}, 3+s)
					if !bytes.Equal(blocks[s], want) {
						return fmt.Errorf("block %d = %q, want %q", s, blocks[s], want)
					}
				}
				return nil
			})
		})
	}
}

// TestGatherAndBcast: the hub-side gather primitive collects every
// rank's block at the root, in rank order, on both transports.
func TestGatherAndBcast(t *testing.T) {
	const m = 4
	forEachTransport(t, m, func(t *testing.T, ts []Transport) {
		perRank(t, ts, func(tr Transport) error {
			mine := AppendUint32(nil, uint32(tr.Rank()*11))
			blocks, err := Gather(tr, 0, FrameGather, 0, 1, mine)
			if err != nil {
				return err
			}
			if tr.Rank() == 0 {
				for s := 0; s < m; s++ {
					v, err := Uint32At(blocks[s], 0)
					if err != nil || int(v) != s*11 {
						return fmt.Errorf("gather block %d = %v (err %v)", s, v, err)
					}
				}
			} else if blocks != nil {
				return fmt.Errorf("non-root got gather blocks")
			}
			return nil
		})
	})
}

// TestSimChargesTime: moving frames through the sim transport advances
// the simulated clocks by the alpha-beta model, so RunTransport over a
// SimGroup still reports meaningful simulated durations.
func TestSimChargesTime(t *testing.T) {
	net := cluster.New(2, simclock.DefaultCostModel())
	g := NewSimGroup(net)
	defer g.Close()
	a, b := g.Transport(0), g.Transport(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		f, err := b.Recv(0)
		if err != nil || len(f.Payload) != 1024 {
			t.Errorf("recv: %v", err)
		}
	}()
	if err := a.Send(1, &Frame{Type: FrameAccum, Payload: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	<-done
	if net.Clock(0).Now() <= 0 || net.Clock(1).Now() < net.Clock(0).Now() {
		t.Fatalf("clocks not charged: sender=%g receiver=%g", net.Clock(0).Now(), net.Clock(1).Now())
	}
}
