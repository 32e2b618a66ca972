package shardserve

import (
	"fmt"

	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// Remote is the cluster-mode seam between the shard layout and real
// peer processes: when a ShardRegistry is built with Options.Remote,
// machine indices that are not local map to netcluster peers. Restores
// and drops are pushed to the owning peer as FrameShard/FrameShardDrop
// (so the peer's local serve.Registry mirrors the plan), and the
// fan-out answers non-local shard groups with a FrameAssignReq RPC
// instead of an in-process batcher call.
//
// Push errors to a peer are non-fatal by design: a dead peer's restore
// failing must not abort the publish or the healing rebalance that is
// routing AROUND that peer — the membership layer will re-spread its
// shards to live machines, and a recovered peer is caught up by the
// next rebalance.
type Remote interface {
	// LocalMachine reports whether machine m is served in this process
	// (no RPC); the coordinator itself is machine 0.
	LocalMachine(m int) bool
	// AssignRemote answers query rows against one shard snapshot on
	// machine m's process. elem tags the row payload's element width
	// (4 or 8); rows is nrows×d values encoded with AppendFloats. When
	// tr is a sampled trace its context rides with the request and the
	// peer's worker-local spans are stitched back into tr, re-anchored
	// at this side's dispatch time (skew-safe offsets, never absolute
	// remote wall times). A nil tr costs nothing.
	AssignRemote(m int, key string, elem byte, nrows, d int, rows []byte, tr *telemetry.Trace) ([]serve.Assignment, error)
	// RestoreRemote installs one shard of a model's centroids on
	// machine m's process at the given version; payload is krows×d
	// float64 values encoded with AppendFloats.
	RestoreRemote(m int, key string, version, node, krows, d int, payload []byte) error
	// DropRemote retires a shard copy from machine m's process.
	DropRemote(m int, key string) error
}

// Shard-push and assign-RPC payload codecs, shared by the coordinator
// hub and the worker peer loop so both sides agree on one schema. The
// float payloads ride as AppendFloats bytes with the element width in
// the frame header — exact bits, no float conversion on the wire.

// encodeShard builds a FrameShard payload.
func encodeShard(key string, version, node, krows, d int, payload []byte) []byte {
	b := netcluster.AppendString(nil, key)
	b = netcluster.AppendUint32(b, uint32(version))
	b = netcluster.AppendUint32(b, uint32(node))
	b = netcluster.AppendUint32(b, uint32(krows))
	b = netcluster.AppendUint32(b, uint32(d))
	return append(b, payload...)
}

// decodeShard unpacks a FrameShard payload; rest is the raw float
// payload (krows×d float64 values).
func decodeShard(b []byte) (key string, version, node, krows, d int, rest []byte, err error) {
	key, off, err := netcluster.StringAt(b, 0)
	if err != nil {
		return "", 0, 0, 0, 0, nil, err
	}
	var vs [4]uint32
	for i := range vs {
		if vs[i], err = netcluster.Uint32At(b, off+4*i); err != nil {
			return "", 0, 0, 0, 0, nil, err
		}
	}
	return key, int(vs[0]), int(vs[1]), int(vs[2]), int(vs[3]), b[off+16:], nil
}

// checkShape fails unless rows×cols values of elem bytes each fit in
// payload, so a frame's claimed shape is checked before anything is
// allocated for it. Dividing instead of multiplying keeps a hostile
// 2^32×2^32 claim from overflowing.
func checkShape(rows, cols, elem int, payload []byte) error {
	if rows <= 0 || cols <= 0 || rows > len(payload)/elem/cols {
		return fmt.Errorf("%w: claims %dx%d values of %d bytes in %d bytes",
			netcluster.ErrShortPayload, rows, cols, elem, len(payload))
	}
	return nil
}

// encodeAssignReq builds a FrameAssignReq payload.
func encodeAssignReq(key string, nrows, d int, rows []byte) []byte {
	b := netcluster.AppendString(nil, key)
	b = netcluster.AppendUint32(b, uint32(nrows))
	b = netcluster.AppendUint32(b, uint32(d))
	return append(b, rows...)
}

// decodeAssignReq unpacks a FrameAssignReq payload.
func decodeAssignReq(b []byte) (key string, nrows, d int, rows []byte, err error) {
	key, off, err := netcluster.StringAt(b, 0)
	if err != nil {
		return "", 0, 0, nil, err
	}
	rn, err := netcluster.Uint32At(b, off)
	if err != nil {
		return "", 0, 0, nil, err
	}
	rd, err := netcluster.Uint32At(b, off+4)
	if err != nil {
		return "", 0, 0, nil, err
	}
	return key, int(rn), int(rd), b[off+8:], nil
}

// encodeAssignResp builds a FrameAssignResp payload: status 1 plus the
// assignments, or status 0 plus the error text.
func encodeAssignResp(as []serve.Assignment, err error) []byte {
	if err != nil {
		b := netcluster.AppendUint32(nil, 0)
		return netcluster.AppendString(b, err.Error())
	}
	b := netcluster.AppendUint32(nil, 1)
	b = netcluster.AppendUint32(b, uint32(len(as)))
	for _, a := range as {
		b = netcluster.AppendUint32(b, uint32(a.Cluster))
		b = netcluster.AppendUint32(b, uint32(a.Version))
		b = netcluster.AppendFloats(b, []float64{a.SqDist})
	}
	return b
}

// decodeAssignResp is encodeAssignResp's inverse. A status-0 payload
// decodes to the peer's error (the fan-out fails over on it).
func decodeAssignResp(b []byte) ([]serve.Assignment, error) {
	status, err := netcluster.Uint32At(b, 0)
	if err != nil {
		return nil, err
	}
	if status == 0 {
		msg, _, err := netcluster.StringAt(b, 4)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("shardserve: peer: %s", msg)
	}
	n, err := netcluster.Uint32At(b, 4)
	if err != nil {
		return nil, err
	}
	// Each assignment takes 16 bytes: check the claimed count before
	// allocating for it.
	if int64(n) > int64(len(b)-8)/16 {
		return nil, fmt.Errorf("%w: %d assignments in %d bytes", netcluster.ErrShortPayload, n, len(b))
	}
	out := make([]serve.Assignment, n)
	off := 8
	var dist [1]float64
	for i := range out {
		cl, err := netcluster.Uint32At(b, off)
		if err != nil {
			return nil, err
		}
		ver, err := netcluster.Uint32At(b, off+4)
		if err != nil {
			return nil, err
		}
		if off, err = netcluster.FloatsAt(b, off+8, 1, dist[:]); err != nil {
			return nil, err
		}
		out[i] = serve.Assignment{Cluster: int32(cl), Version: int(ver), SqDist: dist[0]}
	}
	return out, nil
}
