package shardserve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
	"knor/internal/topology"
)

// Hub is the coordinator side of a real (multi-process) serving
// cluster: it owns the netcluster transport's coordinator rank, pushes
// shard placements to worker peers (the Remote implementation a
// ShardRegistry drives), answers fan-out RPCs by matching
// FrameAssignResp sequence numbers to in-flight FrameAssignReq calls,
// and feeds the membership layer — worker FramePulse heartbeats route
// into topology.Pulse, topology.StartClock self-pulses machine 0 and
// sweeps, and a peer whose connection drops is marked dead immediately
// (the fast path; the pulse timeout covers hangs that keep it open).
//
// Machine index m is transport rank m: machine 0 is the coordinator
// itself (served in-process), machines 1..M-1 are worker processes
// running ServePeer.
type Hub struct {
	tr   netcluster.Transport
	topo *topology.Topology
	sr   *ShardRegistry

	// rpcTimeout bounds one assign RPC; a peer that neither answers nor
	// drops its connection within it counts as failed and the fan-out
	// fails over to the next replica.
	rpcTimeout time.Duration

	seq atomic.Uint32

	mu      sync.Mutex
	pending map[uint64]chan *netcluster.Frame

	stopClock func()
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// NewHub wraps the coordinator rank of a bootstrapped transport.
// rpcTimeout <= 0 defaults to 10s. Call Start once the topology and
// shard registry exist, and Close before closing the transport.
func NewHub(tr netcluster.Transport, rpcTimeout time.Duration) *Hub {
	if tr.Rank() != 0 {
		panic("shardserve: hub must run on the coordinator rank")
	}
	if rpcTimeout <= 0 {
		rpcTimeout = 10 * time.Second
	}
	return &Hub{
		tr:         tr,
		rpcTimeout: rpcTimeout,
		pending:    map[uint64]chan *netcluster.Frame{},
		stopClock:  func() {},
		stop:       make(chan struct{}),
	}
}

// Start attaches the membership layer and begins serving: one demux
// goroutine per worker peer (routing pulses and RPC responses) and the
// topology's pulse/sweep clock, in which only machine 0, this process,
// pulses itself. sr's kill switch gates pulses, so an API "kill"
// silences a machine exactly like a dead process.
func (h *Hub) Start(topo *topology.Topology, sr *ShardRegistry) {
	h.topo = topo
	h.sr = sr
	for r := 1; r < h.tr.Size(); r++ {
		h.wg.Add(1)
		go h.demux(r)
	}
	h.stopClock = topo.StartClock(0, func(m int) bool { return m == 0 && !sr.MachineDown(0) })
}

// demux drains peer r's frames: pulses feed the topology (unless the
// machine's kill switch is down — a "killed" machine must go silent),
// assign responses complete their pending RPC. A receive error is the
// peer's death: every RPC in flight to it fails immediately and the
// membership layer is told without waiting out the pulse timeout.
func (h *Hub) demux(r int) {
	defer h.wg.Done()
	for {
		f, err := h.tr.Recv(r)
		if err != nil {
			h.failPeer(r)
			select {
			case <-h.stop: // shutdown, not a death
			default:
				telemetry.Log("netcluster", telemetry.SevWarn, "peer connection lost",
					telemetry.F("rank", r))
				h.topo.MarkDead(r)
			}
			return
		}
		switch f.Type {
		case netcluster.FramePulse:
			if !h.sr.MachineDown(r) {
				h.topo.Pulse(r, time.Now())
			}
		case netcluster.FrameAssignResp, netcluster.FrameMetrics:
			h.mu.Lock()
			ch, ok := h.pending[rpcKey(r, f.Seq)]
			if ok {
				delete(h.pending, rpcKey(r, f.Seq))
			}
			h.mu.Unlock()
			if ok {
				ch <- f
			}
		}
	}
}

// failPeer aborts every pending RPC addressed to peer r.
func (h *Hub) failPeer(r int) {
	h.mu.Lock()
	for k, ch := range h.pending {
		if int(k>>32) == r {
			delete(h.pending, k)
			close(ch)
		}
	}
	h.mu.Unlock()
}

func rpcKey(peer int, seq uint32) uint64 {
	return uint64(peer)<<32 | uint64(seq)
}

// call runs one RPC round trip to peer m: register the pending slot,
// send, wait for the matching response (or peer death, timeout,
// shutdown).
func (h *Hub) call(m int, f *netcluster.Frame) (*netcluster.Frame, error) {
	return h.callTimeout(m, f, h.rpcTimeout)
}

func (h *Hub) callTimeout(m int, f *netcluster.Frame, timeout time.Duration) (*netcluster.Frame, error) {
	start := time.Now()
	ch := make(chan *netcluster.Frame, 1)
	key := rpcKey(m, f.Seq)
	h.mu.Lock()
	h.pending[key] = ch
	h.mu.Unlock()
	drop := func() {
		h.mu.Lock()
		delete(h.pending, key)
		h.mu.Unlock()
	}
	if err := h.tr.Send(m, f); err != nil {
		drop()
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("shardserve: peer %d died mid-call", m)
		}
		netcluster.ObserveRoundtrip(time.Since(start).Seconds())
		return resp, nil
	case <-time.After(timeout):
		drop()
		return nil, fmt.Errorf("shardserve: peer %d: rpc timeout after %s", m, timeout)
	case <-h.stop:
		drop()
		return nil, fmt.Errorf("shardserve: hub closed")
	}
}

// LocalMachine implements Remote: machine 0 is the coordinator.
func (h *Hub) LocalMachine(m int) bool { return m == 0 }

// AssignRemote implements Remote: one FrameAssignReq/FrameAssignResp
// round trip to machine m's process. A sampled trace's context rides
// as the frame's trace extension; the peer answers with its
// worker-local spans (decode → shard GEMM → encode) as offsets from
// its request receipt, and they are stitched into tr here anchored at
// the local dispatch time — both sides measure only their own
// monotonic clocks, so cross-machine wall-clock skew can never produce
// a negative or misplaced span.
func (h *Hub) AssignRemote(m int, key string, elem byte, nrows, d int, rows []byte, tr *telemetry.Trace) ([]serve.Assignment, error) {
	f := &netcluster.Frame{
		Type: netcluster.FrameAssignReq, Elem: elem, Seq: h.seq.Add(1),
		Payload: encodeAssignReq(key, nrows, d, rows),
	}
	var dispatch time.Time
	if ctx := tr.Context(); ctx.Sampled {
		f.Trace = &netcluster.TraceExt{TraceID: ctx.TraceID, Parent: ctx.Parent, Sampled: true}
		dispatch = time.Now()
	}
	resp, err := h.call(m, f)
	if err != nil {
		return nil, err
	}
	if tr != nil && resp.Trace != nil {
		base := dispatch.Sub(tr.Begin)
		for _, s := range resp.Trace.Spans {
			tr.SpanAt(fmt.Sprintf("rank%d/%s", m, s.Name), base+s.Start, s.Dur)
		}
	}
	return decodeAssignResp(resp.Payload)
}

// FetchMetrics pulls machine m's telemetry registry snapshot over one
// FrameMetrics round trip. The timeout is capped well below the assign
// RPC timeout so a hung worker degrades a federated scrape to a stale
// marker instead of stalling it.
func (h *Hub) FetchMetrics(m int) ([]telemetry.SnapshotFamily, error) {
	timeout := h.rpcTimeout
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	resp, err := h.callTimeout(m, &netcluster.Frame{
		Type: netcluster.FrameMetrics, Seq: h.seq.Add(1),
	}, timeout)
	if err != nil {
		return nil, err
	}
	return netcluster.DecodeSnapshot(resp.Payload)
}

// RestoreRemote implements Remote: push one shard snapshot to machine
// m's process (fire and forget — the peer installs it in arrival
// order, and the fan-out's version check catches any lag).
func (h *Hub) RestoreRemote(m int, key string, version, node, krows, d int, payload []byte) error {
	return h.tr.Send(m, &netcluster.Frame{
		Type: netcluster.FrameShard, Elem: 8,
		Payload: encodeShard(key, version, node, krows, d, payload),
	})
}

// DropRemote implements Remote: retire a shard copy from machine m.
func (h *Hub) DropRemote(m int, key string) error {
	return h.tr.Send(m, &netcluster.Frame{
		Type:    netcluster.FrameShardDrop,
		Payload: netcluster.AppendString(nil, key),
	})
}

// Close stops the clock, aborts in-flight RPCs, and closes the
// transport (which unblocks the demux goroutines' Recv calls).
func (h *Hub) Close() {
	h.stopOnce.Do(func() {
		h.stopClock()
		close(h.stop)
	})
	h.tr.Close()
	h.wg.Wait()
}

var _ Remote = (*Hub)(nil)
