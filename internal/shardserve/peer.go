package shardserve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// PeerOptions configure a worker peer's serve loop.
type PeerOptions struct {
	// Batcher configures the peer's shard batchers. They answer
	// through AssignRaw, below any edge, as the in-process assigner's
	// do, so only Threads applies and a remote replica computes
	// exactly what a local one would.
	Batcher serve.BatcherOptions
	// PulseEvery is the heartbeat cadence (default: a quarter of the
	// topology's pulse timeout, matching the in-process clock).
	PulseEvery time.Duration
}

// ServePeer runs a worker process's serve loop over a bootstrapped
// transport (rank >= 1): it installs FrameShard pushes into a local
// registry, answers FrameAssignReq RPCs from its shard batchers at the
// request's element width, retires copies on FrameShardDrop, and
// heartbeats the coordinator with FramePulse. Shard installs and drops
// apply in arrival order on the receive goroutine (so a drop never
// races its own shard's restore); assign RPCs run concurrently, each
// on its own goroutine, because a GEMM must not stall the heartbeat or
// a rebalance push.
//
// ServePeer blocks until the transport closes (coordinator shutdown or
// this process being told to stop via tr.Close) and returns nil on a
// clean close.
func ServePeer(tr netcluster.Transport, opts PeerOptions) error {
	if tr.Rank() == 0 {
		return fmt.Errorf("shardserve: rank 0 is the coordinator, not a peer")
	}
	reg := newShardCopies()
	bat64 := serve.NewBatcherOf[float64](reg, opts.Batcher)
	bat32 := serve.NewBatcherOf[float32](reg, opts.Batcher)
	defer bat64.Close()
	defer bat32.Close()
	// Live-shard count for the federated scrape: the coordinator's
	// /metrics/cluster shows how many shard copies each worker holds.
	telemetry.Default.GaugeFunc("knor_peer_shards",
		"Shard copies installed in this worker process's local registry.",
		func() float64 { return float64(len(reg.List())) })

	pulseEvery := opts.PulseEvery
	if pulseEvery <= 0 {
		pulseEvery = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pulseEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := tr.Send(0, &netcluster.Frame{Type: netcluster.FramePulse}); err != nil {
					return // coordinator gone; the recv loop is exiting too
				}
			case <-stop:
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	for {
		f, err := tr.Recv(0)
		if err != nil {
			return nil // transport closed: clean shutdown
		}
		switch f.Type {
		case netcluster.FrameShard:
			if err := peerInstall(reg, f); err != nil {
				return fmt.Errorf("shardserve: peer rank %d: bad shard push: %w", tr.Rank(), err)
			}
		case netcluster.FrameShardDrop:
			key, _, err := netcluster.StringAt(f.Payload, 0)
			if err != nil {
				return fmt.Errorf("shardserve: peer rank %d: bad shard drop: %w", tr.Rank(), err)
			}
			reg.Drop(key)
		case netcluster.FrameAssignReq:
			wg.Add(1)
			go func(f *netcluster.Frame) {
				defer wg.Done()
				// The receipt instant anchors every worker-local span: the
				// spans ship back as offsets from it on THIS process's
				// monotonic clock, and the coordinator re-anchors them at
				// its own dispatch time — no absolute wall time crosses the
				// process boundary.
				rec := newSpanRec(f.Trace, time.Now())
				as, aerr := peerAnswer(bat32, bat64, f, rec)
				encStart := time.Now()
				payload := encodeAssignResp(as, aerr)
				rec.add("encode", encStart)
				resp := &netcluster.Frame{
					Type: netcluster.FrameAssignResp, Seq: f.Seq,
					Payload: payload,
					Trace:   rec.ext(f.Trace),
				}
				// A reply the codec refuses (over MaxFrameBytes) is
				// answered with its error under the same Seq, so the
				// coordinator fails over now instead of at its RPC
				// timeout. Any other send failure means the coordinator
				// is gone; the recv loop notices on its next Recv.
				if err := tr.Send(0, resp); errors.Is(err, netcluster.ErrFrameTooLarge) {
					_ = tr.Send(0, &netcluster.Frame{
						Type: netcluster.FrameAssignResp, Seq: f.Seq,
						Payload: encodeAssignResp(nil, err),
					})
				}
			}(f)
		case netcluster.FrameMetrics:
			// Metrics federation pull: answer with this process's registry
			// snapshot. Runs off the recv goroutine so a large snapshot
			// never stalls shard installs or the heartbeat.
			wg.Add(1)
			go func(f *netcluster.Frame) {
				defer wg.Done()
				_ = tr.Send(0, &netcluster.Frame{
					Type: netcluster.FrameMetrics, Seq: f.Seq,
					Payload: netcluster.EncodeSnapshot(nil, telemetry.Default.Snapshot()),
				})
			}(f)
		}
	}
}

// spanRec collects worker-local spans for a sampled request as offsets
// from the request-receipt anchor. nil (unsampled request) records
// nothing, so the common path pays only the nil check.
type spanRec struct {
	anchor time.Time
	spans  []telemetry.RemoteSpan
}

// newSpanRec returns a recorder when the incoming frame carries a
// sampled trace context, nil otherwise.
func newSpanRec(ext *netcluster.TraceExt, receipt time.Time) *spanRec {
	if ext == nil || !ext.Sampled {
		return nil
	}
	return &spanRec{anchor: receipt}
}

// add records a span from start to now.
func (r *spanRec) add(name string, start time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, telemetry.RemoteSpan{
		Name:  name,
		Start: start.Sub(r.anchor),
		Dur:   time.Since(start),
	})
}

// ext builds the reply's trace extension: the request's context echoed
// back with the recorded spans piggybacked. nil for unsampled requests.
func (r *spanRec) ext(req *netcluster.TraceExt) *netcluster.TraceExt {
	if r == nil || req == nil {
		return nil
	}
	return &netcluster.TraceExt{
		TraceID: req.TraceID, Parent: req.Parent, Sampled: true, Spans: r.spans,
	}
}

// peerInstall restores one pushed shard snapshot into the peer's local
// registry — the float64 payload bits go straight into the registry, so
// a remote replica holds exactly the bytes the coordinator's local
// registries hold.
func peerInstall(reg *serve.Registry, f *netcluster.Frame) error {
	if err := netcluster.CheckElem(f, 8); err != nil {
		return err
	}
	key, version, node, krows, d, rest, err := decodeShard(f.Payload)
	if err != nil {
		return err
	}
	if err := checkShape(krows, d, 8, rest); err != nil {
		return fmt.Errorf("shard %q: %w", key, err)
	}
	c := matrix.New[float64](krows, d)
	if _, err := netcluster.FloatsAt(rest, 0, krows*d, c.Data); err != nil {
		return err
	}
	_, err = reg.Restore(key, version, node, c)
	// A version that is not newer than what we hold is a rebalance
	// replaying a push we already have — not an error.
	if err != nil && version > 0 {
		if cur, ok := reg.Get(key); ok && cur.Version >= version {
			return nil
		}
	}
	return err
}

// peerAnswer runs one assign RPC against the local shard batcher of
// the request's element width, recording decode and GEMM spans on rec
// when the request is sampled.
func peerAnswer(bat32 *serve.BatcherOf[float32], bat64 *serve.BatcherOf[float64], f *netcluster.Frame, rec *spanRec) ([]serve.Assignment, error) {
	decStart := time.Now()
	key, nrows, d, rows, err := decodeAssignReq(f.Payload)
	switch {
	case err != nil:
		return nil, err
	case f.Elem == 4:
		return peerAssign(bat32, key, nrows, d, rows, decStart, rec)
	case f.Elem == 8:
		return peerAssign(bat64, key, nrows, d, rows, decStart, rec)
	}
	return nil, fmt.Errorf("assign request element width %d", f.Elem)
}

// peerAssign decodes nrows×d query values at b's element width and
// answers them through b's raw entry: the coordinator's edge clamps
// after the cross-shard min.
func peerAssign[T blas.Float](b *serve.BatcherOf[T], key string, nrows, d int, payload []byte, decStart time.Time, rec *spanRec) ([]serve.Assignment, error) {
	if err := checkShape(nrows, d, blas.ElemBytes[T](), payload); err != nil {
		return nil, fmt.Errorf("assign request: %w", err)
	}
	q := matrix.New[T](nrows, d)
	if _, err := netcluster.FloatsAt(payload, 0, nrows*d, q.Data); err != nil {
		return nil, err
	}
	rec.add("decode", decStart)
	gemmStart := time.Now()
	as, _, err := b.AssignRaw(key, q, nil)
	rec.add("shard_gemm", gemmStart)
	return as, err
}
