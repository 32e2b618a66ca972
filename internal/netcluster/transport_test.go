package netcluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	_ Transport = (*TCPTransport)(nil)
	_ Transport = (*SimTransport)(nil)
)

// coordListener binds the coordinator's loopback listener up front so
// workers can join a port that is guaranteed bound.
func coordListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := ListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// tcpCluster bootstraps an m-rank TCP cluster in-process on loopback
// and returns the transports indexed by rank.
func tcpCluster(t *testing.T, m int, digest string) []*TCPTransport {
	t.Helper()
	ln := coordListener(t)
	coordAddr := ln.Addr().String()
	out := make([]*TCPTransport, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := TCPOptions{
				Listen:           "127.0.0.1:0",
				Join:             coordAddr,
				Digest:           digest,
				BootstrapTimeout: 20 * time.Second,
			}
			if i == 0 {
				opts.Listen, opts.Join, opts.Machines, opts.Listener = coordAddr, "", m, ln
			}
			tr, err := DialCluster(opts)
			if err != nil {
				errs[i] = err
				return
			}
			out[tr.Rank()] = tr
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d bootstrap: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range out {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return out
}

// TestTCPBootstrap: the join handshake assigns every rank exactly
// once, all rosters agree, and every ordered pair of ranks can
// exchange frames in order over the established mesh.
func TestTCPBootstrap(t *testing.T) {
	const m = 4
	ts := tcpCluster(t, m, "boot")
	for r, tr := range ts {
		if tr == nil {
			t.Fatalf("rank %d missing (duplicate assignment elsewhere)", r)
		}
		if tr.Rank() != r || tr.Size() != m {
			t.Fatalf("rank %d reports rank=%d size=%d", r, tr.Rank(), tr.Size())
		}
		for s := 0; s < m; s++ {
			if tr.Addr(s) != ts[0].Addr(s) {
				t.Fatalf("roster disagrees at rank %d entry %d: %q vs %q", r, s, tr.Addr(s), ts[0].Addr(s))
			}
		}
	}
	// Full-mesh ordered exchange: every rank sends two frames to every
	// other rank; receivers see them in order with the right tags.
	var wg sync.WaitGroup
	errc := make(chan error, m)
	for r := 0; r < m; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := ts[r]
			for to := 0; to < m; to++ {
				if to == r {
					continue
				}
				for k := 0; k < 2; k++ {
					f := &Frame{Type: FramePulse, Seq: uint32(r*100 + k), Payload: AppendUint32(nil, uint32(r))}
					if err := tr.Send(to, f); err != nil {
						errc <- err
						return
					}
				}
			}
			for from := 0; from < m; from++ {
				if from == r {
					continue
				}
				for k := 0; k < 2; k++ {
					f, err := tr.Recv(from)
					if err != nil {
						errc <- err
						return
					}
					got, _ := Uint32At(f.Payload, 0)
					if int(got) != from || f.Seq != uint32(from*100+k) {
						errc <- fmt.Errorf("rank %d: frame from %d carries origin=%d seq=%d (want seq=%d)",
							r, from, got, f.Seq, from*100+k)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// manualJoin dials a coordinator and sends a hand-rolled join frame,
// returning the open connection (the coordinator replies only after
// the roster fills, or immediately on rejection).
func manualJoin(t *testing.T, coord, advertise, digest string) net.Conn {
	t.Helper()
	var conn net.Conn
	var err error
	for i := 0; i < 50; i++ {
		conn, err = net.DialTimeout("tcp", coord, 2*time.Second)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	join := AppendString(nil, advertise)
	join = AppendString(join, digest)
	if _, err := WriteFrame(conn, &Frame{Type: FrameJoin, Payload: join}); err != nil {
		t.Fatalf("write join: %v", err)
	}
	return conn
}

// readReply reads the coordinator's response on a manual join conn.
func readReply(t *testing.T, conn net.Conn) *Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return f
}

// TestTCPRejectsDuplicateAddress: two joiners advertising the same
// listen address would be two processes claiming one rank slot; the
// coordinator rejects the second with an error frame and aborts the
// bootstrap.
func TestTCPRejectsDuplicateAddress(t *testing.T) {
	ln := coordListener(t)
	coordAddr := ln.Addr().String()
	done := make(chan error, 1)
	go func() {
		_, err := DialCluster(TCPOptions{
			Listener: ln, Machines: 3, Digest: "dup",
			BootstrapTimeout: 20 * time.Second,
		})
		done <- err
	}()
	manualJoin(t, coordAddr, "127.0.0.1:7777", "dup") // rank 1, reply deferred
	second := manualJoin(t, coordAddr, "127.0.0.1:7777", "dup")
	reply := readReply(t, second)
	if reply.Type != FrameError || !strings.Contains(string(reply.Payload), "duplicate") {
		t.Fatalf("want duplicate-rank error frame, got type=%d payload=%q", reply.Type, reply.Payload)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("coordinator should fail bootstrap on duplicate address, got %v", err)
	}
}

// TestTCPRejectsDigestMismatch: a joiner with a different config
// digest is refused before it can poison the cluster.
func TestTCPRejectsDigestMismatch(t *testing.T) {
	ln := coordListener(t)
	coordAddr := ln.Addr().String()
	done := make(chan error, 1)
	go func() {
		_, err := DialCluster(TCPOptions{
			Listener: ln, Machines: 2, Digest: "k=8,seed=1",
			BootstrapTimeout: 20 * time.Second,
		})
		done <- err
	}()
	conn := manualJoin(t, coordAddr, "127.0.0.1:7778", "k=9,seed=1")
	reply := readReply(t, conn)
	if reply.Type != FrameError || !strings.Contains(string(reply.Payload), "digest") {
		t.Fatalf("want digest-mismatch error frame, got type=%d payload=%q", reply.Type, reply.Payload)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("coordinator should fail bootstrap on digest mismatch, got %v", err)
	}
}

// TestTCPPeerDeath: once a peer's process goes away, pending and
// future Recvs from it return errors instead of hanging.
func TestTCPPeerDeath(t *testing.T) {
	ts := tcpCluster(t, 3, "death")
	ts[2].Close() // rank 2 "dies"
	deadline := time.After(10 * time.Second)
	got := make(chan error, 1)
	go func() {
		_, err := ts[0].Recv(2)
		got <- err
	}()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("Recv from dead peer returned a frame")
		}
	case <-deadline:
		t.Fatal("Recv from dead peer hung")
	}
}

// TestTCPSelfSendRejected: ranks cannot address themselves or
// out-of-range peers.
func TestTCPSelfSendRejected(t *testing.T) {
	ts := tcpCluster(t, 2, "self")
	if err := ts[0].Send(0, &Frame{Type: FramePulse}); err == nil {
		t.Fatal("self-send should fail")
	}
	if err := ts[0].Send(5, &Frame{Type: FramePulse}); err == nil {
		t.Fatal("out-of-range send should fail")
	}
	if _, err := ts[1].Recv(7); err == nil {
		t.Fatal("out-of-range recv should fail")
	}
}

// TestTCPOversizedSendKeepsLink: a frame the codec refuses fails its
// Send before a byte is written, so it is neither a peer error nor a
// link failure: the counter stays put and the link delivers the next
// frame.
func TestTCPOversizedSendKeepsLink(t *testing.T) {
	ts := tcpCluster(t, 2, "oversized")
	before := telPeerErrors.Load()
	err := ts[0].Send(1, &Frame{Type: FrameAccum, Elem: 8, Payload: make([]byte, MaxFrameBytes+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send: %v, want ErrFrameTooLarge", err)
	}
	if got := telPeerErrors.Load(); got != before {
		t.Fatalf("oversized send counted %d peer errors", got-before)
	}
	if err := ts[0].Send(1, &Frame{Type: FramePulse, Seq: 7}); err != nil {
		t.Fatalf("send after the oversized frame: %v", err)
	}
	f, err := ts[1].Recv(0)
	if err != nil || f.Type != FramePulse || f.Seq != 7 {
		t.Fatalf("recv after the oversized frame: %+v, %v", f, err)
	}
}
