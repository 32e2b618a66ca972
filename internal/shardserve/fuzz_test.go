package shardserve

import (
	"bytes"
	"testing"

	"knor/internal/netcluster"
	"knor/internal/serve"
)

// FuzzPeerPayloads: the worker's payload decoders never panic on what a
// frame claims. A shard push, an assign request and an assign reply
// each carry a count the decoder must check against the bytes present
// before allocating for it; anything accepted must be consistent with
// what was claimed.
func FuzzPeerPayloads(f *testing.F) {
	const key = "m\x000"
	cents := netcluster.AppendFloats(nil, []float64{0, 0, 0, 1, 1, 1})
	rows64 := netcluster.AppendFloats(nil, []float64{0.9, 1, 1.1})
	rows32 := netcluster.AppendFloats(nil, []float32{0.1, 0, 0.2})
	reply := encodeAssignResp([]serve.Assignment{{Cluster: 1, SqDist: 0.02, Version: 1}}, nil)
	shard, req := encodeShard(key, 1, 0, 2, 3, cents), encodeAssignReq(key, 1, 3, rows64)
	// Seeds: a valid push, request and reply at each request width, then
	// the shapes a hostile frame can claim, one payload at a time:
	// 2^31×2^31 values in a few bytes, and 2^31 assignments in an empty
	// reply.
	f.Add(byte(8), shard, byte(8), req, reply)
	f.Add(byte(8), shard, byte(4), encodeAssignReq(key, 1, 3, rows32), reply)
	f.Add(byte(4), shard, byte(8), req[:len(req)-1], reply[:20])
	f.Add(byte(8), encodeShard(key, 1, 0, 1<<31, 1<<31, cents), byte(8), req, reply)
	f.Add(byte(8), shard, byte(8), encodeAssignReq(key, 1<<31, 1<<31, rows64), reply)
	f.Add(byte(8), shard, byte(8), req, netcluster.AppendUint32(netcluster.AppendUint32(nil, 1), 1<<31))

	reg := newShardCopies()
	bat64 := serve.NewBatcherOf[float64](reg, serve.BatcherOptions{Threads: 1})
	bat32 := serve.NewBatcherOf[float32](reg, serve.BatcherOptions{Threads: 1})
	defer bat64.Close()
	defer bat32.Close()

	f.Fuzz(func(t *testing.T, shardElem byte, shard []byte, reqElem byte, req, resp []byte) {
		if k, version, _, _, _, _, err := decodeShard(shard); err == nil {
			defer reg.Drop(k)
			if peerInstall(reg, &netcluster.Frame{Type: netcluster.FrameShard, Elem: shardElem, Payload: shard}) == nil {
				if cur, ok := reg.Get(k); !ok || cur.Version < version {
					t.Fatalf("install of %q v%d accepted but not held", k, version)
				}
			}
		}
		fr := &netcluster.Frame{Type: netcluster.FrameAssignReq, Elem: reqElem, Payload: req}
		if as, err := peerAnswer(bat32, bat64, fr, nil); err == nil {
			if _, nrows, _, _, _ := decodeAssignReq(req); len(as) != nrows {
				t.Fatalf("answered %d rows of %d", len(as), nrows)
			}
		}
		if as, err := decodeAssignResp(resp); err == nil {
			// An accepted reply re-encodes to the bytes it was read from,
			// status word aside (any nonzero status is success).
			re := encodeAssignResp(as, nil)
			if !bytes.Equal(re[4:], resp[4:len(re)]) {
				t.Fatalf("reply of %d assignments does not re-encode", len(as))
			}
		}
	})
}
