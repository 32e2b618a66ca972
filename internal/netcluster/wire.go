// Package netcluster is the real multi-process cluster substrate: the
// Transport seam the distributed trainer (internal/dist) and the
// sharded serving layer (internal/shardserve) run over when the
// "machines" are actual OS processes instead of internal/cluster's
// simulated ones.
//
// The package has three layers:
//
//   - wire.go: a versioned binary frame codec — every message between
//     processes is one length-prefixed frame with a fixed 16-byte
//     header (magic, codec version, frame type, element width, a
//     sequence tag, payload length). Decoding never panics and never
//     reads past the declared length; malformed input yields typed
//     errors (ErrBadMagic, ErrBadVersion, ErrFrameTooLarge, ...).
//   - transport.go / sim.go: point-to-point frame delivery between M
//     ranks. TCPTransport speaks the codec over real sockets (join
//     handshake, rank assignment, connection reuse, write deadlines);
//     SimTransport moves the same frames between goroutines while
//     charging internal/cluster's alpha-beta costs, so the simulated
//     and real paths are interchangeable behind one interface.
//   - collectives.go / hub.go: the collectives knord's iteration merge
//     needs (ring allgather with a fixed-rank-order fold, gather) and
//     the serving-side hub/peer protocol (shard spread, assignment
//     RPC, heartbeats) behind the shardserve fan-out.
//
// Parity discipline: every reduction *value* is folded in fixed rank
// order (the same left-to-right order internal/dist's simulated
// collective uses), so an M-process run is bit-identical to the
// M-machine simulated run and to the single-process oracle at both
// element widths.
package netcluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"knor/internal/blas"
	"knor/internal/telemetry"
)

// Frame header layout, 16 bytes, big-endian:
//
//	offset size field
//	0      4    magic 0x6B6E6F72 ("knor")
//	4      1    codec version (1 or 2)
//	5      1    frame type
//	6      1    element width: 0 (opaque), 4 (float32) or 8 (float64)
//	7      1    v1: reserved, must be 0; v2: extension flags
//	8      4    seq: collective round / RPC correlation tag
//	12     4    payload length in bytes (extensions included)
//	16     ...  [v2 extensions] payload
//
// Version discipline: version 2 exists only to mark the presence of a
// payload-prefix extension (today: the trace context). A frame with no
// extension is always emitted as version 1 — byte-for-byte what the v1
// encoder wrote — so a v2 process talking to a v1 process degrades to
// exactly the old wire format, and the decoder rejects a v2 header
// whose flags byte names no extension (the encoder never produces
// one). The reader accepts both versions.
const (
	frameMagic     = 0x6b6e6f72 // "knor"
	codecVersionV1 = 1
	codecVersion   = 2
	headerBytes    = 16
)

// Extension flags (header byte 7, version 2 frames only). Bits without
// a name here are reserved and rejected.
const (
	// flagTrace: the payload is prefixed with a trace-context extension
	// (see appendTraceExt for the layout).
	flagTrace = byte(1 << 0)

	knownFlags = flagTrace
)

// MaxFrameBytes bounds a frame's payload: a peer announcing a larger
// length is rejected with ErrFrameTooLarge before any allocation, so a
// corrupt or malicious length field can neither OOM nor hang the
// reader. 64 MiB comfortably holds the largest real payload (a k×d
// accumulator or a shard of centroids) while staying far below
// anything allocation-hazardous.
const MaxFrameBytes = 64 << 20

// Frame types. The bootstrap pair (join/assignRank) and hello carry
// the handshake; the rest are the collective and serving payloads.
const (
	// FrameJoin is a worker's handshake: payload = its listen address
	// and config digest (joinPayload).
	FrameJoin = byte(iota + 1)
	// FrameAssignRank is the coordinator's reply: payload = assigned
	// rank and the full rank-ordered roster of listen addresses.
	FrameAssignRank
	// FrameHello identifies the dialing rank on a mesh connection.
	FrameHello
	// FrameAccum carries one rank's serialized delta accumulator +
	// iteration stats around the allgather ring.
	FrameAccum
	// FrameGather carries a rank's final assignments to rank 0.
	FrameGather
	// FrameMinPairs is retired: nothing sends it. It keeps its slot so
	// FramePulse and every later frame type keep their numbers on the
	// wire.
	FrameMinPairs
	// FramePulse is a liveness heartbeat (empty payload).
	FramePulse
	// FrameShard installs one shard of a model's centroids on a peer.
	FrameShard
	// FrameShardDrop retires a shard copy from a peer.
	FrameShardDrop
	// FrameAssignReq asks a peer to answer query rows against a shard.
	FrameAssignReq
	// FrameAssignResp answers a FrameAssignReq (same seq).
	FrameAssignResp
	// FrameError answers any request with a failure (payload = message).
	FrameError
	// FrameMetrics pulls a peer's telemetry registry snapshot: an empty
	// request answered with a serialized snapshot (same seq) — the
	// metrics-federation RPC behind GET /metrics/cluster.
	FrameMetrics
	frameTypeMax
)

// frameTypeName names each type for the knor_net_frames_total label.
func frameTypeName(t byte) string {
	switch t {
	case FrameJoin:
		return "join"
	case FrameAssignRank:
		return "assign_rank"
	case FrameHello:
		return "hello"
	case FrameAccum:
		return "accum"
	case FrameGather:
		return "gather"
	case FrameMinPairs:
		return "min_pairs"
	case FramePulse:
		return "pulse"
	case FrameShard:
		return "shard"
	case FrameShardDrop:
		return "shard_drop"
	case FrameAssignReq:
		return "assign_req"
	case FrameAssignResp:
		return "assign_resp"
	case FrameError:
		return "error"
	case FrameMetrics:
		return "metrics"
	default:
		return "unknown"
	}
}

// Typed decode errors. Every malformed input maps to exactly one of
// these (possibly wrapped with position detail); decoding never panics
// and never blocks past the declared payload length.
var (
	// ErrBadMagic: the stream does not start with the knor frame magic.
	ErrBadMagic = errors.New("netcluster: bad frame magic")
	// ErrBadVersion: the frame's codec version is not ours.
	ErrBadVersion = errors.New("netcluster: unsupported codec version")
	// ErrBadType: the frame type byte is outside the known range.
	ErrBadType = errors.New("netcluster: unknown frame type")
	// ErrBadElem: the element-width byte is not 0, 4 or 8.
	ErrBadElem = errors.New("netcluster: bad element width")
	// ErrBadReserved: the reserved header byte is nonzero.
	ErrBadReserved = errors.New("netcluster: nonzero reserved header byte")
	// ErrFrameTooLarge: the declared payload length exceeds the bound.
	ErrFrameTooLarge = errors.New("netcluster: frame exceeds max size")
	// ErrTruncated: the stream ended inside a header or payload.
	ErrTruncated = errors.New("netcluster: truncated frame")
	// ErrElemMismatch: a payload's element width disagrees with the
	// receiver's expectation (a 4-byte peer talking to an 8-byte one).
	ErrElemMismatch = errors.New("netcluster: element width mismatch")
	// ErrShortPayload: a payload is too small for its declared contents.
	ErrShortPayload = errors.New("netcluster: short payload")
)

// Frame is one decoded message.
type Frame struct {
	Type byte
	// Elem is the payload's element width: 4 or 8 for numeric payloads,
	// 0 for opaque ones (handshake, pulse, errors).
	Elem byte
	// Seq tags the frame: the iteration/step for collectives, the
	// request id for RPCs.
	Seq     uint32
	Payload []byte
	// Trace is the optional cross-process trace context (nil = none).
	// When set, the frame is emitted as codec version 2 with the trace
	// extension prefixed to the payload; Payload itself never includes
	// the extension bytes on either side.
	Trace *TraceExt
}

// TraceExt is the trace-context frame extension: the propagatable
// identity of a sampled trace (ID + parent span + sampled bit), plus —
// on replies — the worker-side spans recorded while answering,
// expressed as offsets from the moment the worker received the request
// (never absolute wall times, so cross-machine clock skew cannot
// produce a negative or misplaced span when the coordinator re-anchors
// them at its local dispatch time).
type TraceExt struct {
	TraceID uint64
	Parent  uint64
	Sampled bool
	Spans   []telemetry.RemoteSpan
}

// traceExtSize returns the encoded extension size in bytes (excluding
// the u32 length prefix).
func traceExtSize(t *TraceExt) int {
	n := 8 + 8 + 1 + 4
	for _, s := range t.Spans {
		n += 4 + len(s.Name) + 8 + 8
	}
	return n
}

// appendTraceExt appends the extension: u32 length, u64 trace ID, u64
// parent span, u8 sampled, u32 span count, then per span a
// length-prefixed name and u64 start/duration offsets in nanoseconds.
// All little-endian, matching the payload primitives.
func appendTraceExt(dst []byte, t *TraceExt) []byte {
	dst = AppendUint32(dst, uint32(traceExtSize(t)))
	dst = AppendUint64(dst, t.TraceID)
	dst = AppendUint64(dst, t.Parent)
	if t.Sampled {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = AppendUint32(dst, uint32(len(t.Spans)))
	for _, s := range t.Spans {
		dst = AppendString(dst, s.Name)
		dst = AppendUint64(dst, uint64(s.Start.Nanoseconds()))
		dst = AppendUint64(dst, uint64(s.Dur.Nanoseconds()))
	}
	return dst
}

// parseTraceExt decodes the extension at the head of b, returning the
// extension and the offset of the real payload. Strict: the declared
// length must exactly cover the span list and the sampled byte must be
// 0 or 1, so decode→encode is an involution on the valid set.
func parseTraceExt(b []byte) (*TraceExt, int, error) {
	extLen, err := Uint32At(b, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: trace extension length", ErrShortPayload)
	}
	end := 4 + int(extLen)
	if extLen > uint32(MaxFrameBytes) || end > len(b) {
		return nil, 0, fmt.Errorf("%w: trace extension (%d bytes declared)", ErrShortPayload, extLen)
	}
	ext := b[:end]
	t := &TraceExt{}
	off := 4
	if t.TraceID, err = Uint64At(ext, off); err != nil {
		return nil, 0, err
	}
	if t.Parent, err = Uint64At(ext, off+8); err != nil {
		return nil, 0, err
	}
	off += 16
	if off >= len(ext) {
		return nil, 0, fmt.Errorf("%w: trace extension sampled bit", ErrShortPayload)
	}
	switch ext[off] {
	case 0:
		t.Sampled = false
	case 1:
		t.Sampled = true
	default:
		return nil, 0, fmt.Errorf("%w: trace extension sampled byte 0x%02x", ErrShortPayload, ext[off])
	}
	off++
	nspans, err := Uint32At(ext, off)
	if err != nil {
		return nil, 0, err
	}
	off += 4
	// Each span needs at least 20 bytes, so a hostile count is rejected
	// before any allocation proportional to it.
	if int(nspans) > (len(ext)-off)/20 {
		return nil, 0, fmt.Errorf("%w: trace extension declares %d spans", ErrShortPayload, nspans)
	}
	t.Spans = make([]telemetry.RemoteSpan, 0, nspans)
	for i := uint32(0); i < nspans; i++ {
		var s telemetry.RemoteSpan
		s.Name, off, err = StringAt(ext, off)
		if err != nil {
			return nil, 0, err
		}
		start, err := Uint64At(ext, off)
		if err != nil {
			return nil, 0, err
		}
		dur, err := Uint64At(ext, off+8)
		if err != nil {
			return nil, 0, err
		}
		off += 16
		s.Start = time.Duration(start)
		s.Dur = time.Duration(dur)
		t.Spans = append(t.Spans, s)
	}
	if off != end {
		return nil, 0, fmt.Errorf("%w: trace extension length %d does not match contents (%d)",
			ErrShortPayload, extLen, off-4)
	}
	return t, end, nil
}

// validElem reports whether e is a legal element-width byte.
func validElem(e byte) bool { return e == 0 || e == 4 || e == 8 }

// EncodeFrame appends f's wire form to dst and returns the result. A
// frame without extensions encodes as version 1 — bit-identical to the
// pre-extension codec — so the extension-free wire format never drifts
// and old peers interoperate; a trace context upgrades the frame to
// version 2 with the extension prefixed to the payload.
func EncodeFrame(dst []byte, f *Frame) ([]byte, error) {
	if f.Type == 0 || f.Type >= frameTypeMax {
		return dst, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	if !validElem(f.Elem) {
		return dst, fmt.Errorf("%w: %d", ErrBadElem, f.Elem)
	}
	version, flags, extBytes := byte(codecVersionV1), byte(0), 0
	if f.Trace != nil {
		version, flags = codecVersion, flagTrace
		extBytes = 4 + traceExtSize(f.Trace)
	}
	total := extBytes + len(f.Payload)
	if total > MaxFrameBytes {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, total)
	}
	var h [headerBytes]byte
	binary.BigEndian.PutUint32(h[0:], frameMagic)
	h[4] = version
	h[5] = f.Type
	h[6] = f.Elem
	h[7] = flags
	binary.BigEndian.PutUint32(h[8:], f.Seq)
	binary.BigEndian.PutUint32(h[12:], uint32(total))
	dst = append(dst, h[:]...)
	if f.Trace != nil {
		dst = appendTraceExt(dst, f.Trace)
	}
	return append(dst, f.Payload...), nil
}

// WriteFrame writes f to w and returns the bytes written.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	buf, err := EncodeFrame(make([]byte, 0, headerBytes+len(f.Payload)), f)
	if err != nil {
		return 0, err
	}
	return writeEncoded(w, buf, f.Type)
}

// writeEncoded writes one frame of type typ that EncodeFrame produced
// and counts it.
func writeEncoded(w io.Writer, buf []byte, typ byte) (int, error) {
	n, err := w.Write(buf)
	if err != nil {
		return n, err
	}
	telBytesTx.Add(uint64(n))
	telFrames.With(frameTypeName(typ)).Inc()
	return n, nil
}

// ReadFrame reads one frame from r. Partial reads are retried
// (io.ReadFull); a stream ending mid-header or mid-payload yields
// ErrTruncated, a clean EOF before any header byte yields io.EOF, and
// every header-validation failure yields its typed error. The payload
// allocation is bounded by MaxFrameBytes.
func ReadFrame(r io.Reader) (*Frame, error) {
	var h [headerBytes]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if m := binary.BigEndian.Uint32(h[0:]); m != frameMagic {
		return nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, m)
	}
	version := h[4]
	if version != codecVersionV1 && version != codecVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	f := &Frame{Type: h[5], Elem: h[6], Seq: binary.BigEndian.Uint32(h[8:])}
	if f.Type == 0 || f.Type >= frameTypeMax {
		return nil, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	if !validElem(f.Elem) {
		return nil, fmt.Errorf("%w: %d", ErrBadElem, f.Elem)
	}
	flags := h[7]
	switch {
	case version == codecVersionV1 && flags != 0:
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadReserved, flags)
	case version == codecVersion && (flags&^knownFlags != 0 || flags == 0):
		// Unknown flag bits are malformed; a v2 header with no extension
		// is too — the encoder always downgrades extension-free frames to
		// v1, so such a header can only come from a broken peer.
		return nil, fmt.Errorf("%w: version 2 flags 0x%02x", ErrBadReserved, flags)
	}
	n := binary.BigEndian.Uint32(h[12:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return nil, fmt.Errorf("%w: payload (%d bytes): %v", ErrTruncated, n, err)
		}
	}
	if flags&flagTrace != 0 {
		ext, skip, err := parseTraceExt(f.Payload)
		if err != nil {
			return nil, err
		}
		f.Trace = ext
		f.Payload = f.Payload[skip:]
		if len(f.Payload) == 0 {
			f.Payload = nil
		}
	}
	telBytesRx.Add(uint64(headerBytes + int(n)))
	return f, nil
}

// --- payload primitives ------------------------------------------------
//
// Little-endian scalar packing shared by every numeric payload. The
// float bit patterns travel verbatim (math.Float64bits / Float32bits),
// so a value decoded on the far side is the identical float — the
// foundation of the bit-parity acceptance.

// AppendUint32 appends v little-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// Uint32At reads a little-endian uint32 at off.
func Uint32At(b []byte, off int) (uint32, error) {
	if off < 0 || off+4 > len(b) {
		return 0, ErrShortPayload
	}
	return binary.LittleEndian.Uint32(b[off:]), nil
}

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// Uint64At reads a little-endian uint64 at off.
func Uint64At(b []byte, off int) (uint64, error) {
	if off < 0 || off+8 > len(b) {
		return 0, ErrShortPayload
	}
	return binary.LittleEndian.Uint64(b[off:]), nil
}

// AppendString appends a length-prefixed UTF-8 string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// StringAt reads a length-prefixed string at off, returning the string
// and the offset past it.
func StringAt(b []byte, off int) (string, int, error) {
	n, err := Uint32At(b, off)
	if err != nil {
		return "", 0, err
	}
	off += 4
	if uint32(len(b)-off) < n {
		return "", 0, ErrShortPayload
	}
	return string(b[off : off+int(n)]), off + int(n), nil
}

// AppendFloats appends vals at T's element width, little-endian, exact
// bit patterns.
func AppendFloats[T blas.Float](dst []byte, vals []T) []byte {
	switch vs := any(vals).(type) {
	case []float32:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	case []float64:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// FloatsAt decodes n values of type T at off into out (len >= n),
// returning the offset past them.
func FloatsAt[T blas.Float](b []byte, off, n int, out []T) (int, error) {
	eb := blas.ElemBytes[T]()
	if off < 0 || n < 0 || len(b)-off < n*eb {
		return 0, ErrShortPayload
	}
	switch os := any(out).(type) {
	case []float32:
		for i := 0; i < n; i++ {
			os[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off+i*4:]))
		}
	case []float64:
		for i := 0; i < n; i++ {
			os[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+i*8:]))
		}
	}
	return off + n*eb, nil
}

// AppendInt64s appends vals little-endian.
func AppendInt64s(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// Int64sAt decodes n int64s at off into out, returning the offset past
// them.
func Int64sAt(b []byte, off, n int, out []int64) (int, error) {
	if off < 0 || n < 0 || len(b)-off < n*8 {
		return 0, ErrShortPayload
	}
	for i := 0; i < n; i++ {
		out[i] = int64(binary.LittleEndian.Uint64(b[off+i*8:]))
	}
	return off + n*8, nil
}

// AppendInt32s appends vals little-endian.
func AppendInt32s(dst []byte, vals []int32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Int32sAt decodes n int32s at off into out, returning the offset past
// them.
func Int32sAt(b []byte, off, n int, out []int32) (int, error) {
	if off < 0 || n < 0 || len(b)-off < n*4 {
		return 0, ErrShortPayload
	}
	for i := 0; i < n; i++ {
		out[i] = int32(binary.LittleEndian.Uint32(b[off+i*4:]))
	}
	return off + n*4, nil
}

// CheckElem validates a frame's element width against the receiver's
// expected width, mapping disagreement to the typed ErrElemMismatch —
// a float32 process joined to a float64 cluster fails loudly at the
// first payload, never with silently reinterpreted bits.
func CheckElem(f *Frame, want int) error {
	if int(f.Elem) != want {
		return fmt.Errorf("%w: frame carries elem=%d, this rank runs elem=%d",
			ErrElemMismatch, f.Elem, want)
	}
	return nil
}
