package netcluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"knor/internal/cluster"
)

// SimGroup is the simulated counterpart of a TCP cluster: M
// SimTransports in one process, moving the same frames the real
// transport moves (identical bytes, so parity tests exercise the full
// encode/decode path) while charging internal/cluster's alpha-beta
// costs on the simulated machine clocks. A frame from rank a to rank b
// advances a's clock past the send (NetLatency + bytes/NetBandwidth)
// and stamps the frame with its arrival time; b's clock catches up to
// that stamp when the frame is received.
type SimGroup struct {
	net *cluster.Network

	mu    sync.Mutex // guards the shared Network clocks
	links [][]chan simFrame

	closeOnce sync.Once
	closed    chan struct{}
}

// ErrClosed is what a SimTransport's Send and Recv return once its group
// has been closed.
var ErrClosed = errors.New("netcluster: sim transport closed")

type simFrame struct {
	f  *Frame
	at float64 // simulated arrival time
}

// simInboxDepth matches the TCP transport's inbox so the two
// implementations block under the same backlog conditions.
const simInboxDepth = inboxDepth

// NewSimGroup builds the M-rank simulated mesh over net's cost model.
func NewSimGroup(net *cluster.Network) *SimGroup {
	g := &SimGroup{net: net, closed: make(chan struct{})}
	g.links = make([][]chan simFrame, net.M)
	for from := range g.links {
		g.links[from] = make([]chan simFrame, net.M)
		for to := range g.links[from] {
			if to != from {
				g.links[from][to] = make(chan simFrame, simInboxDepth)
			}
		}
	}
	return g
}

// Transport returns rank r's endpoint.
func (g *SimGroup) Transport(r int) *SimTransport {
	if r < 0 || r >= g.net.M {
		panic(fmt.Sprintf("netcluster: sim rank %d out of range 0..%d", r, g.net.M-1))
	}
	return &SimTransport{group: g, rank: r}
}

// Close tears the whole group down; blocked Recvs on every rank fail.
func (g *SimGroup) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return nil
}

// SimTransport is one rank's endpoint in a SimGroup. It implements
// Transport with goroutine-local channels instead of sockets; frames
// are encoded and re-decoded through the wire codec so the bytes on
// the (simulated) wire are exactly the bytes TCPTransport would move.
type SimTransport struct {
	group *SimGroup
	rank  int
}

// Rank implements Transport.
func (t *SimTransport) Rank() int { return t.rank }

// Size implements Transport.
func (t *SimTransport) Size() int { return t.group.net.M }

// Send implements Transport: the frame round-trips through the codec,
// the sender's simulated clock advances past the alpha-beta send cost,
// and the frame is queued for the destination stamped with its arrival
// time.
func (t *SimTransport) Send(to int, f *Frame) error {
	g := t.group
	if to == t.rank || to < 0 || to >= g.net.M {
		return fmt.Errorf("netcluster: send to invalid rank %d (self %d of %d)", to, t.rank, g.net.M)
	}
	buf, err := EncodeFrame(nil, f)
	if err != nil {
		return err
	}
	wire, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("netcluster: sim wire round-trip: %w", err)
	}
	telBytesTx.Add(uint64(len(buf)))
	telFrames.With(frameTypeName(f.Type)).Inc()

	g.mu.Lock()
	clock := g.net.Clock(t.rank)
	cost := g.net.Model.NetLatency + float64(len(buf))/g.net.Model.NetBandwidth
	at := clock.Now() + cost
	clock.AdvanceTo(at)
	g.mu.Unlock()

	select {
	case g.links[t.rank][to] <- simFrame{f: wire, at: at}:
		return nil
	case <-g.closed:
		return ErrClosed
	}
}

// Recv implements Transport: the receiver's simulated clock catches up
// to the frame's arrival time.
func (t *SimTransport) Recv(from int) (*Frame, error) {
	g := t.group
	if from == t.rank || from < 0 || from >= g.net.M {
		return nil, fmt.Errorf("netcluster: recv from invalid rank %d (self %d of %d)", from, t.rank, g.net.M)
	}
	select {
	case sf := <-g.links[from][t.rank]:
		g.mu.Lock()
		g.net.Clock(t.rank).AdvanceTo(sf.at)
		g.mu.Unlock()
		return sf.f, nil
	case <-g.closed:
		return nil, ErrClosed
	}
}

// Close implements Transport. Closing any rank closes the group: a
// simulated "process" dying takes its links down exactly like a real
// socket teardown unblocks both ends.
func (t *SimTransport) Close() error { return t.group.Close() }
