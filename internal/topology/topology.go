// Package topology is the cluster membership layer behind replicated
// shard serving: it tracks which simulated machines are live, detects
// death and recovery from health pulses, and announces every transition
// over channels drained by a dispatcher goroutine (the seaweedfs
// topology shape: chanDeadDataNodes / chanRecoveredDataNodes), so
// placement layers can re-spread shard replicas as machines come and
// go.
//
// Two detection paths feed the same transitions:
//
//   - Pulse + Sweep: machines report periodic health pulses; a sweep
//     marks any live machine whose last pulse is older than
//     PulseTimeout dead. This is the production path (knorserve runs a
//     pulse clock over its simulated machines).
//   - MarkDead / MarkRecovered: explicit transitions, the
//     fault-injection path the chaos harness drives so kill schedules
//     replay deterministically from a seed.
//
// The package deliberately owns no placement state; it answers "who is
// live" (Live, IsLive, Epoch) and calls subscribers on every
// transition. Place is the one placement primitive shared with the
// shard layer: a deterministic spread of a shard's replicas over the
// live set.
package topology

import (
	"fmt"
	"sync"
	"time"

	"knor/internal/telemetry"
)

// State is a machine's membership state.
type State int32

const (
	// Live machines receive placements and answer fan-outs.
	Live State = iota
	// Dead machines are skipped by placement until they recover.
	Dead
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Live:
		return "live"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Event is one membership transition, delivered to subscribers in
// dispatch order.
type Event struct {
	Machine int
	To      State
}

// Config sizes a topology.
type Config struct {
	// Machines is the cluster size (machine IDs 0..Machines-1).
	Machines int
	// PulseTimeout is how long a machine may go without a health pulse
	// before a Sweep declares it dead (default 2s).
	PulseTimeout time.Duration
}

// DefaultPulseTimeout is the liveness window when Config leaves
// PulseTimeout zero.
const DefaultPulseTimeout = 2 * time.Second

// Topology tracks machine membership. All methods are safe for
// concurrent use. Close stops the dispatcher; transitions after Close
// still update state but are no longer delivered.
type Topology struct {
	cfg Config

	mu        sync.RWMutex
	state     []State
	lastPulse []time.Time
	epoch     uint64
	subs      []func(Event)

	chanDead      chan int
	chanRecovered chan int
	closed        chan struct{}
	closeOnce     sync.Once
	dispatchDone  chan struct{}
}

// New builds a topology with every machine live, as a cluster boots:
// death is detected, never assumed.
func New(cfg Config) *Topology {
	if cfg.Machines < 1 {
		panic("topology: need at least one machine")
	}
	if cfg.PulseTimeout <= 0 {
		cfg.PulseTimeout = DefaultPulseTimeout
	}
	t := &Topology{
		cfg:           cfg,
		state:         make([]State, cfg.Machines),
		lastPulse:     make([]time.Time, cfg.Machines),
		chanDead:      make(chan int),
		chanRecovered: make(chan int),
		closed:        make(chan struct{}),
		dispatchDone:  make(chan struct{}),
	}
	now := time.Now()
	for i := range t.lastPulse {
		t.lastPulse[i] = now
	}
	telMachinesLive.Set(float64(cfg.Machines))
	go t.dispatch()
	return t
}

// Machines returns the cluster size.
func (t *Topology) Machines() int { return t.cfg.Machines }

// dispatch drains the transition channels and fans events out to
// subscribers. Subscribers run on this goroutine, one event at a time,
// and may call back into the topology's read methods (Live, IsLive).
func (t *Topology) dispatch() {
	defer close(t.dispatchDone)
	for {
		select {
		case m := <-t.chanDead:
			t.notify(Event{Machine: m, To: Dead})
		case m := <-t.chanRecovered:
			t.notify(Event{Machine: m, To: Live})
		case <-t.closed:
			return
		}
	}
}

func (t *Topology) notify(e Event) {
	t.mu.RLock()
	subs := t.subs
	t.mu.RUnlock()
	for _, fn := range subs {
		fn(e)
	}
}

// Subscribe registers fn to run on the dispatcher goroutine for every
// transition delivered after this call. fn must not block for long: it
// serialises with every other subscriber.
func (t *Topology) Subscribe(fn func(Event)) {
	t.mu.Lock()
	t.subs = append(t.subs, fn)
	t.mu.Unlock()
}

// send delivers one transition to the dispatcher unless the topology is
// closed. Called without t.mu held (the dispatcher's subscribers may
// read topology state).
func (t *Topology) send(ch chan int, m int) {
	select {
	case ch <- m:
	case <-t.closed:
	}
}

// Pulse records a health pulse from machine m observed at the given
// time. A pulse from a dead machine is the recovery signal. The
// interval between a machine's consecutive pulses feeds the
// health_pulse_seconds histogram, so a scrape shows pulse cadence (and
// a stalling pulser shows up as a fat tail).
func (t *Topology) Pulse(m int, at time.Time) {
	t.mu.Lock()
	if prev := t.lastPulse[m]; !prev.IsZero() && at.After(prev) {
		telPulseSeconds.Observe(at.Sub(prev).Seconds())
	}
	t.lastPulse[m] = at
	recovered := t.state[m] == Dead
	if recovered {
		t.transitionLocked(m, Live)
	}
	t.mu.Unlock()
	if recovered {
		t.send(t.chanRecovered, m)
	}
}

// Sweep marks every live machine whose last pulse is older than
// PulseTimeout dead, as of now, and returns the newly-dead machine IDs
// in ascending order.
func (t *Topology) Sweep(now time.Time) []int {
	t.mu.Lock()
	var dead []int
	for m := range t.state {
		if t.state[m] == Live && now.Sub(t.lastPulse[m]) > t.cfg.PulseTimeout {
			t.transitionLocked(m, Dead)
			dead = append(dead, m)
		}
	}
	t.mu.Unlock()
	for _, m := range dead {
		t.send(t.chanDead, m)
	}
	return dead
}

// MarkDead transitions machine m to Dead explicitly (fault injection,
// or an out-of-band failure signal). No-op if already dead.
func (t *Topology) MarkDead(m int) {
	t.mu.Lock()
	changed := t.state[m] == Live
	if changed {
		t.transitionLocked(m, Dead)
	}
	t.mu.Unlock()
	if changed {
		t.send(t.chanDead, m)
	}
}

// MarkRecovered transitions machine m to Live explicitly and restarts
// its pulse window so the next sweep does not immediately re-kill it.
// No-op if already live.
func (t *Topology) MarkRecovered(m int) {
	t.mu.Lock()
	changed := t.state[m] == Dead
	if changed {
		t.lastPulse[m] = time.Now()
		t.transitionLocked(m, Live)
	}
	t.mu.Unlock()
	if changed {
		t.send(t.chanRecovered, m)
	}
}

// transitionLocked flips machine m's state and updates the membership
// instruments. Caller holds t.mu and has verified the state changes.
func (t *Topology) transitionLocked(m int, to State) {
	t.state[m] = to
	t.epoch++
	telTransitions.With(to.String()).Inc()
	live := 0
	for _, s := range t.state {
		if s == Live {
			live++
		}
	}
	telMachinesLive.Set(float64(live))
	sev := telemetry.SevInfo
	if to == Dead {
		sev = telemetry.SevWarn
	}
	telemetry.Log("topology", sev, "membership transition",
		telemetry.F("machine", m), telemetry.F("to", to.String()),
		telemetry.F("live", live), telemetry.F("epoch", t.epoch))
}

// Live returns the live machine IDs in ascending order.
func (t *Topology) Live() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, 0, len(t.state))
	for m, s := range t.state {
		if s == Live {
			out = append(out, m)
		}
	}
	return out
}

// IsLive reports whether machine m is live.
func (t *Topology) IsLive(m int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.state[m] == Live
}

// Epoch returns the membership epoch: it increments on every
// transition, so a placement layer can cheaply detect "has the live set
// changed since I planned?".
func (t *Topology) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// Close stops the dispatcher and waits for it to drain. Subscribers
// receive no events after Close returns.
func (t *Topology) Close() {
	t.closeOnce.Do(func() {
		close(t.closed)
		<-t.dispatchDone
	})
}

// StartClock runs the production detection loop in the background:
// every `every`, each machine for which alive(m) returns true pulses,
// then a sweep retires machines that stopped pulsing. alive stands in
// for "the machine's pulser process is running" — knorserve wires it to
// the shard layer's kill switch so a killed simulated machine goes
// silent exactly like a dead process would. The returned stop function
// halts the clock and returns once its goroutine has exited, so no
// pulse or sweep follows it (idempotent).
func (t *Topology) StartClock(every time.Duration, alive func(m int) bool) (stop func()) {
	if every <= 0 {
		every = t.cfg.PulseTimeout / 4
	}
	done, exited := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				for m := 0; m < t.cfg.Machines; m++ {
					if alive == nil || alive(m) {
						t.Pulse(m, now)
					}
				}
				t.Sweep(now)
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Place returns the machines that should hold the replicas of shard s:
// up to r distinct entries of live, starting at live[s mod len(live)]
// and wrapping. Deterministic in (s, live), so every publisher computes
// the same layout; consecutive shards start on consecutive live
// machines, so load spreads evenly and the replicas of one shard land
// on distinct machines (the availability requirement: R-1 machine
// deaths cannot silence a shard). With replication 1 over a fully-live
// cluster this reduces to shard s -> machine s, the pre-replication
// layout.
func Place(s, r int, live []int) []int {
	if len(live) == 0 {
		return nil
	}
	if r > len(live) {
		r = len(live)
	}
	if r < 1 {
		r = 1
	}
	out := make([]int, r)
	for j := 0; j < r; j++ {
		out[j] = live[(s+j)%len(live)]
	}
	return out
}
