package netcluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"knor/internal/telemetry"
)

// Transport is the point-to-point seam the distributed trainer and the
// sharded serving layer run over: M ranks (0..Size-1), frames delivered
// in order per sender, with close/error semantics — once the link to a
// peer fails, every pending and future Recv from that peer returns the
// error instead of hanging. Send and Recv are safe for concurrent use
// (per peer, sends serialise; receives from the same peer must not be
// issued concurrently by the caller).
//
// Two implementations: TCPTransport (real sockets, this file) and
// SimTransport (goroutines + internal/cluster costs, sim.go).
type Transport interface {
	// Rank is this process's id, 0..Size-1. Rank 0 is the coordinator.
	Rank() int
	// Size is the cluster size M.
	Size() int
	// Send delivers f to rank `to`, blocking until the frame is on the
	// wire (or the write deadline expires).
	Send(to int, f *Frame) error
	// Recv returns the next frame from rank `from`, blocking until one
	// arrives or the link fails.
	Recv(from int) (*Frame, error)
	// Close tears the transport down; blocked Recvs return errors.
	Close() error
}

// TCPOptions configure a real cluster bootstrap.
type TCPOptions struct {
	// Listen is this process's own listen address (host:port; port 0
	// picks a free one). Required for every rank: workers accept mesh
	// connections from higher ranks on it.
	Listen string
	// Join is the coordinator's listen address. Empty means THIS
	// process is the coordinator (rank 0).
	Join string
	// Machines is the cluster size M. Required on the coordinator;
	// workers learn it from the rank-assignment frame (leave 0, or set
	// it to cross-check).
	Machines int
	// Digest fingerprints the run configuration (dataset, k, seed,
	// precision, ...). The coordinator rejects joins whose digest
	// differs — a cluster silently mixing configs would train garbage.
	Digest string
	// WriteTimeout bounds each frame write (default 10s).
	WriteTimeout time.Duration
	// BootstrapTimeout bounds the whole join/mesh handshake
	// (default 60s).
	BootstrapTimeout time.Duration
	// Listener, when set, is a pre-bound listener used instead of
	// binding Listen — in-process clusters bind the coordinator port
	// first and hand it over, eliminating any reserve/rebind race.
	Listener net.Listener
}

func (o *TCPOptions) withDefaults() TCPOptions {
	opts := *o
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	if opts.BootstrapTimeout <= 0 {
		opts.BootstrapTimeout = 60 * time.Second
	}
	return opts
}

// peerLink is one established connection to a peer rank.
type peerLink struct {
	conn net.Conn

	wmu sync.Mutex // serialises writes

	inbox chan *Frame

	mu  sync.Mutex
	err error // set before inbox closes
}

func (p *peerLink) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *peerLink) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		return fmt.Errorf("netcluster: link closed")
	}
	return p.err
}

// TCPTransport is the real-socket Transport: one TCP connection per
// peer pair, established once at bootstrap and reused for the life of
// the process (write deadlines per frame, a reader goroutine per
// connection feeding per-peer in-order inboxes).
type TCPTransport struct {
	rank  int
	size  int
	opts  TCPOptions
	addrs []string // rank-ordered listen addresses

	peers []*peerLink // index by rank; nil at self

	closeOnce sync.Once
	closed    chan struct{}
}

// Rank implements Transport.
func (t *TCPTransport) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCPTransport) Size() int { return t.size }

// Addr returns rank r's advertised listen address.
func (t *TCPTransport) Addr(r int) string { return t.addrs[r] }

// Send implements Transport.
func (t *TCPTransport) Send(to int, f *Frame) error {
	if to == t.rank || to < 0 || to >= t.size {
		return fmt.Errorf("netcluster: send to invalid rank %d (self %d of %d)", to, t.rank, t.size)
	}
	// A frame the codec refuses fails here, before a byte is written:
	// it is the caller's error, so the link neither counts a peer error
	// nor records a failure.
	buf, err := EncodeFrame(make([]byte, 0, headerBytes+len(f.Payload)), f)
	if err != nil {
		return fmt.Errorf("netcluster: send to rank %d: %w", to, err)
	}
	p := t.peers[to]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	if _, err := writeEncoded(p.conn, buf, f.Type); err != nil {
		telPeerErrors.Inc()
		p.fail(err)
		return fmt.Errorf("netcluster: send to rank %d: %w", to, err)
	}
	return nil
}

// Recv implements Transport.
func (t *TCPTransport) Recv(from int) (*Frame, error) {
	if from == t.rank || from < 0 || from >= t.size {
		return nil, fmt.Errorf("netcluster: recv from invalid rank %d (self %d of %d)", from, t.rank, t.size)
	}
	p := t.peers[from]
	f, ok := <-p.inbox
	if !ok {
		return nil, fmt.Errorf("netcluster: recv from rank %d: %w", from, p.failure())
	}
	return f, nil
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	})
	return nil
}

// reader drains one connection into its peer inbox until the link
// fails or the transport closes.
func (t *TCPTransport) reader(p *peerLink) {
	defer close(p.inbox)
	for {
		f, err := ReadFrame(p.conn)
		if err != nil {
			select {
			case <-t.closed:
			default:
				telPeerErrors.Inc()
			}
			p.fail(err)
			return
		}
		select {
		case p.inbox <- f:
		case <-t.closed:
			p.fail(fmt.Errorf("netcluster: transport closed"))
			return
		}
	}
}

const inboxDepth = 256

// writeTo writes one frame on an established link under its write
// mutex and deadline (the bootstrap-side sibling of Send).
func writeTo(p *peerLink, opts TCPOptions, f *Frame) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	_, err := WriteFrame(p.conn, f)
	return err
}

func newPeerLink(conn net.Conn) *peerLink {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &peerLink{conn: conn, inbox: make(chan *Frame, inboxDepth)}
}

// ListenLoopback binds a fresh loopback port for an in-process
// coordinator; pass the listener via TCPOptions.Listener and its
// Addr() to the workers as Join.
func ListenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// DialCluster bootstraps a real cluster member and blocks until the
// full mesh is up.
//
// The coordinator (empty Join) listens, accepts Machines-1 join
// handshakes, assigns ranks in arrival order, validates that no two
// members advertise the same listen address (duplicate ranks), and
// replies to each worker with its rank and the rank-ordered roster.
// Each worker then dials every lower-ranked worker (identifying itself
// with a hello frame) and accepts connections from higher ranks, so
// every pair of ranks shares exactly one connection, established by
// the higher rank. DialCluster returns once this process holds a live
// connection to every other rank.
func DialCluster(o TCPOptions) (*TCPTransport, error) {
	opts := o.withDefaults()
	ln := opts.Listener
	if ln == nil {
		if opts.Listen == "" {
			return nil, fmt.Errorf("netcluster: a cluster member needs a listen address")
		}
		var err error
		ln, err = net.Listen("tcp", opts.Listen)
		if err != nil {
			telDialErrors.Inc()
			return nil, fmt.Errorf("netcluster: listen %s: %w", opts.Listen, err)
		}
	}
	deadline := time.Now().Add(opts.BootstrapTimeout)
	if opts.Join == "" {
		return bootstrapCoordinator(ln, opts, deadline)
	}
	return bootstrapWorker(ln, opts, deadline)
}

// bootstrapCoordinator runs rank 0's side of the handshake.
func bootstrapCoordinator(ln net.Listener, opts TCPOptions, deadline time.Time) (*TCPTransport, error) {
	defer ln.Close()
	m := opts.Machines
	if m < 1 {
		return nil, fmt.Errorf("netcluster: coordinator needs Machines >= 1, got %d", m)
	}
	t := &TCPTransport{
		rank:   0,
		size:   m,
		opts:   opts,
		addrs:  make([]string, m),
		peers:  make([]*peerLink, m),
		closed: make(chan struct{}),
	}
	t.addrs[0] = ln.Addr().String()
	seen := map[string]int{t.addrs[0]: 0}
	type lner interface{ SetDeadline(time.Time) error }
	for next := 1; next < m; next++ {
		if d, ok := ln.(lner); ok {
			d.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Close()
			telDialErrors.Inc()
			return nil, fmt.Errorf("netcluster: waiting for %d more member(s): %w", m-next, err)
		}
		addr, err := acceptJoin(conn, opts, deadline, seen)
		if err != nil {
			conn.Close()
			telDialErrors.Inc()
			t.Close()
			return nil, err
		}
		seen[addr] = next
		t.addrs[next] = addr
		t.peers[next] = newPeerLink(conn)
		telemetry.Log("netcluster", telemetry.SevInfo, "peer joined",
			telemetry.F("rank", next), telemetry.F("addr", addr))
	}
	// Every member is in: hand each worker its rank and the roster.
	roster := make([]byte, 0, 64)
	roster = AppendUint32(roster, uint32(m))
	for _, a := range t.addrs {
		roster = AppendString(roster, a)
	}
	for r := 1; r < m; r++ {
		payload := AppendUint32(nil, uint32(r))
		payload = append(payload, roster...)
		if err := writeTo(t.peers[r], opts, &Frame{Type: FrameAssignRank, Payload: payload}); err != nil {
			t.Close()
			return nil, fmt.Errorf("netcluster: assigning rank %d: %w", r, err)
		}
	}
	t.startReaders()
	telemetry.Log("netcluster", telemetry.SevInfo, "cluster bootstrapped",
		telemetry.F("machines", m), telemetry.F("coordinator", t.addrs[0]))
	return t, nil
}

// acceptJoin validates one inbound join handshake and returns the
// member's advertised listen address.
func acceptJoin(conn net.Conn, opts TCPOptions, deadline time.Time, seen map[string]int) (string, error) {
	conn.SetReadDeadline(deadline)
	f, err := ReadFrame(conn)
	if err != nil {
		return "", fmt.Errorf("netcluster: join handshake: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if f.Type != FrameJoin {
		return "", fmt.Errorf("netcluster: join handshake: got frame type %d, want join", f.Type)
	}
	addr, off, err := StringAt(f.Payload, 0)
	if err != nil {
		return "", fmt.Errorf("netcluster: join payload: %w", err)
	}
	digest, _, err := StringAt(f.Payload, off)
	if err != nil {
		return "", fmt.Errorf("netcluster: join payload: %w", err)
	}
	reject := func(msg string) (string, error) {
		wf := &Frame{Type: FrameError, Payload: []byte(msg)}
		conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
		WriteFrame(conn, wf)
		return "", fmt.Errorf("netcluster: rejected join from %s: %s", addr, msg)
	}
	if digest != opts.Digest {
		return reject(fmt.Sprintf("config digest mismatch: coordinator %q, joiner %q", opts.Digest, digest))
	}
	if addr == "" {
		return reject("joiner advertised an empty listen address")
	}
	if r, dup := seen[addr]; dup {
		return reject(fmt.Sprintf("listen address %s already joined as rank %d (duplicate rank)", addr, r))
	}
	return addr, nil
}

// bootstrapWorker runs a worker's side: join, learn the rank and
// roster, then build the mesh (dial lower ranks, accept higher ones).
func bootstrapWorker(ln net.Listener, opts TCPOptions, deadline time.Time) (*TCPTransport, error) {
	selfAddr := ln.Addr().String()
	d := net.Dialer{Deadline: deadline}
	// The coordinator may not be listening yet — workers are routinely
	// launched first — so the join dial retries until the bootstrap
	// deadline.
	var conn net.Conn
	for {
		var err error
		conn, err = d.Dial("tcp", opts.Join)
		if err == nil {
			break
		}
		telDialErrors.Inc()
		if time.Now().Add(100 * time.Millisecond).After(deadline) {
			ln.Close()
			// Journal only the final failure — the retry loop is routine
			// while the coordinator is still coming up.
			telemetry.Log("netcluster", telemetry.SevError, "join dial failed",
				telemetry.F("join", opts.Join), telemetry.F("err", err.Error()))
			return nil, fmt.Errorf("netcluster: join %s: %w", opts.Join, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	join := AppendString(nil, selfAddr)
	join = AppendString(join, opts.Digest)
	conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	if _, err := WriteFrame(conn, &Frame{Type: FrameJoin, Payload: join}); err != nil {
		conn.Close()
		ln.Close()
		telDialErrors.Inc()
		return nil, fmt.Errorf("netcluster: join %s: %w", opts.Join, err)
	}
	conn.SetReadDeadline(deadline)
	f, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		ln.Close()
		telDialErrors.Inc()
		return nil, fmt.Errorf("netcluster: waiting for rank assignment: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if f.Type == FrameError {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("netcluster: coordinator rejected join: %s", f.Payload)
	}
	if f.Type != FrameAssignRank {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("netcluster: rank assignment: got frame type %d", f.Type)
	}
	rank32, err := Uint32At(f.Payload, 0)
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("netcluster: rank assignment payload: %w", err)
	}
	m32, err := Uint32At(f.Payload, 4)
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("netcluster: rank assignment payload: %w", err)
	}
	rank, m := int(rank32), int(m32)
	if opts.Machines > 0 && opts.Machines != m {
		conn.Close()
		ln.Close()
		return nil, fmt.Errorf("netcluster: -machines %d disagrees with coordinator's cluster size %d", opts.Machines, m)
	}
	addrs := make([]string, m)
	off := 8
	for r := 0; r < m; r++ {
		addrs[r], off, err = StringAt(f.Payload, off)
		if err != nil {
			conn.Close()
			ln.Close()
			return nil, fmt.Errorf("netcluster: roster payload: %w", err)
		}
	}
	t := &TCPTransport{
		rank:   rank,
		size:   m,
		opts:   opts,
		addrs:  addrs,
		peers:  make([]*peerLink, m),
		closed: make(chan struct{}),
	}
	t.peers[0] = newPeerLink(conn)

	// Mesh: dial every worker below us, identifying ourselves.
	for r := 1; r < rank; r++ {
		pc, err := d.Dial("tcp", addrs[r])
		if err != nil {
			ln.Close()
			t.Close()
			telDialErrors.Inc()
			return nil, fmt.Errorf("netcluster: mesh dial rank %d (%s): %w", r, addrs[r], err)
		}
		pc.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
		if _, err := WriteFrame(pc, &Frame{Type: FrameHello, Payload: AppendUint32(nil, uint32(rank))}); err != nil {
			pc.Close()
			ln.Close()
			t.Close()
			telDialErrors.Inc()
			return nil, fmt.Errorf("netcluster: mesh hello to rank %d: %w", r, err)
		}
		pc.SetWriteDeadline(time.Time{})
		t.peers[r] = newPeerLink(pc)
	}
	// Accept every worker above us.
	for need := m - 1 - rank; need > 0; need-- {
		type lner interface{ SetDeadline(time.Time) error }
		if dl, ok := ln.(lner); ok {
			dl.SetDeadline(deadline)
		}
		pc, err := ln.Accept()
		if err != nil {
			ln.Close()
			t.Close()
			telDialErrors.Inc()
			return nil, fmt.Errorf("netcluster: rank %d waiting for %d mesh connection(s): %w", rank, need, err)
		}
		pc.SetReadDeadline(deadline)
		hf, err := ReadFrame(pc)
		if err != nil || hf.Type != FrameHello {
			pc.Close()
			ln.Close()
			t.Close()
			telDialErrors.Inc()
			return nil, fmt.Errorf("netcluster: rank %d mesh accept: bad hello (%v)", rank, err)
		}
		pc.SetReadDeadline(time.Time{})
		from32, err := Uint32At(hf.Payload, 0)
		from := int(from32)
		if err != nil || from <= rank || from >= m || t.peers[from] != nil {
			pc.Close()
			ln.Close()
			t.Close()
			return nil, fmt.Errorf("netcluster: rank %d mesh accept: invalid hello rank %d", rank, from)
		}
		t.peers[from] = newPeerLink(pc)
	}
	ln.Close()
	t.startReaders()
	return t, nil
}

// startReaders launches one reader goroutine per established link.
func (t *TCPTransport) startReaders() {
	for r, p := range t.peers {
		if r != t.rank && p != nil {
			go t.reader(p)
		}
	}
}
