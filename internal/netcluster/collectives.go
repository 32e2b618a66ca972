package netcluster

import "fmt"

// Real collectives over the Transport seam. The movement patterns are
// the classic ones (ring allgather, hub gather); the *values* follow
// the package parity discipline — every reduction folds contributions
// in fixed rank order 0..M-1, matching internal/dist's simulated
// collective, so the result bits never depend on message arrival
// order.

// Allgather runs a ring allgather: every rank contributes one opaque
// block and receives every rank's block, returned indexed by origin
// rank. M-1 steps; in step s, rank r forwards the block that
// originated at (r-s+M)%M to its right neighbour (r+1)%M and receives
// the block originated at (r-1-s+M)%M from its left neighbour. Each
// wire payload is the origin rank (uint32) followed by the block, and
// the origin is verified against the ring schedule — a desynchronised
// peer fails loudly instead of silently merging wrong-iteration data.
//
// typ and elem stamp the frames; seq must be the collective round
// (e.g. the training iteration) and is verified on every hop.
func Allgather(t Transport, typ, elem byte, seq uint32, mine []byte) ([][]byte, error) {
	m, r := t.Size(), t.Rank()
	blocks := make([][]byte, m)
	blocks[r] = mine
	right, left := (r+1)%m, (r-1+m)%m
	for s := 0; s < m-1; s++ {
		outOrigin := ((r-s)%m + m) % m
		payload := AppendUint32(make([]byte, 0, 4+len(blocks[outOrigin])), uint32(outOrigin))
		payload = append(payload, blocks[outOrigin]...)
		if err := t.Send(right, &Frame{Type: typ, Elem: elem, Seq: seq, Payload: payload}); err != nil {
			return nil, fmt.Errorf("netcluster: allgather step %d send: %w", s, err)
		}
		f, err := t.Recv(left)
		if err != nil {
			return nil, fmt.Errorf("netcluster: allgather step %d recv: %w", s, err)
		}
		if f.Type != typ || f.Seq != seq {
			return nil, fmt.Errorf("netcluster: allgather step %d: got frame type=%d seq=%d, want type=%d seq=%d",
				s, f.Type, f.Seq, typ, seq)
		}
		origin32, err := Uint32At(f.Payload, 0)
		if err != nil {
			return nil, fmt.Errorf("netcluster: allgather step %d: %w", s, err)
		}
		wantOrigin := ((left-s)%m + m) % m
		if int(origin32) != wantOrigin {
			return nil, fmt.Errorf("netcluster: allgather step %d: block originated at rank %d, schedule expects %d",
				s, origin32, wantOrigin)
		}
		blocks[wantOrigin] = f.Payload[4:]
	}
	return blocks, nil
}

// Gather collects every rank's block at root (indexed by origin rank;
// non-root ranks get nil). The root drains peers in rank order — each
// peer has its own in-order inbox, so this cannot deadlock and keeps
// the result deterministic.
func Gather(t Transport, root int, typ, elem byte, seq uint32, mine []byte) ([][]byte, error) {
	m, r := t.Size(), t.Rank()
	if r != root {
		if err := t.Send(root, &Frame{Type: typ, Elem: elem, Seq: seq, Payload: mine}); err != nil {
			return nil, fmt.Errorf("netcluster: gather send to root: %w", err)
		}
		return nil, nil
	}
	blocks := make([][]byte, m)
	blocks[root] = mine
	for from := 0; from < m; from++ {
		if from == root {
			continue
		}
		f, err := t.Recv(from)
		if err != nil {
			return nil, fmt.Errorf("netcluster: gather recv from rank %d: %w", from, err)
		}
		if f.Type != typ || f.Seq != seq {
			return nil, fmt.Errorf("netcluster: gather from rank %d: got frame type=%d seq=%d, want type=%d seq=%d",
				from, f.Type, f.Seq, typ, seq)
		}
		blocks[from] = f.Payload
	}
	return blocks, nil
}
