package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"knor/internal/matrix"
	"knor/internal/workload"
)

// senders is the open-loop generator's width: at most this many
// requests are outstanding, each on its own keep-alive connection.
const senders = 2

// request is one scheduled HTTP request of a phase.
type request struct {
	at    time.Duration // due time, from the phase start
	path  string
	body  []byte
	rows  *matrix.Dense // assign: the query rows, for the answer check
	batch int           // write: observe batch index, -1 for a publish
}

// outcome is what happened to one request.
type outcome struct {
	sent, done time.Duration // from the phase start
	status     int
	err        error
	body       []byte
}

// phase is one open-loop load phase against a deployment and what it
// measured.
type phase struct {
	assigns, writes []request
	aOut, wOut      []outcome
}

// traffic generates a deployment's request streams from the seed: the
// /v1/assign queries and the observe batches. Both are drawn from the
// distribution the model was trained on.
type traffic struct {
	sh      serveShape
	queries *workload.QueryStream
	obs     *workload.QueryStream
	batches []*matrix.Dense // observe batches generated so far, by index
}

func newTraffic(sh serveShape, seed int64) *traffic {
	sp := sh.querySpec(seed)
	return &traffic{sh: sh,
		queries: workload.NewQueryStream(sp, seed*7919+1),
		obs:     workload.NewQueryStream(sp, seed*7919+2)}
}

// batch returns observe batch i, generating batches in index order so
// every deployment fed index i sees the same rows.
func (t *traffic) batch(i int) *matrix.Dense {
	for len(t.batches) <= i {
		t.batches = append(t.batches, t.obs.Next(writeRows))
	}
	return t.batches[i]
}

type rowsBody struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

func bodyOf(m *matrix.Dense) []byte {
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	b, _ := json.Marshal(rowsBody{Model: modelName, Rows: rows})
	return b
}

// plan schedules rate assigns per second for dur and, on a cluster, the
// write stream alongside: writeRate observes per second, each
// publishPer-th one followed by a publish.
// firstObs is the index of the next observe batch.
func (t *traffic) plan(rate float64, dur time.Duration, firstObs int) *phase {
	p := &phase{}
	n := int(rate * dur.Seconds())
	for i := 0; i < n; i++ {
		q := t.queries.Next(t.sh.Rows)
		p.assigns = append(p.assigns, request{at: time.Duration(float64(i) / rate * 1e9),
			path: "/v1/assign", body: bodyOf(q), rows: q})
	}
	if !t.sh.Cluster {
		return p
	}
	for i := 0; float64(i) < writeRate*dur.Seconds(); i++ {
		at := time.Duration(float64(i) / writeRate * 1e9)
		b := firstObs + i
		p.writes = append(p.writes, request{at: at, path: "/v1/observe", body: bodyOf(t.batch(b)), batch: b})
		if (b+1)%publishPer == 0 {
			body, _ := json.Marshal(map[string]string{"model": modelName})
			p.writes = append(p.writes, request{at: at, path: "/v1/publish", body: body, batch: -1})
		}
	}
	return p
}

// observes counts the observe requests of a write list.
func observes(ws []request) int {
	n := 0
	for _, w := range ws {
		if w.batch >= 0 {
			n++
		}
	}
	return n
}

// newSenderClients returns one HTTP client per sender, each limited to
// a single keep-alive connection.
func newSenderClients() []*http.Client {
	cs := make([]*http.Client, senders)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: requestLimit * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
				DisableCompression: true},
		}
	}
	return cs
}

// run sends the phase open loop. Each sender takes the next due
// request, sleeps until its due time if it is early, sends it and
// waits for the answer; a request due while both senders are busy waits
// for one, and that wait is part of its latency. Writes go through
// sender 0 only, in schedule order, so the server folds and publishes
// them in a fixed order.
func (p *phase) run(addr string, clients []*http.Client) {
	p.aOut = make([]outcome, len(p.assigns))
	p.wOut = make([]outcome, len(p.writes))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := range clients {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			wi := 0
			for {
				ai := int(next.Load())
				if s == 0 && wi < len(p.writes) && (ai >= len(p.assigns) || p.writes[wi].at <= p.assigns[ai].at) {
					p.wOut[wi] = send(clients[s], addr, start, p.writes[wi])
					wi++
					continue
				}
				ai = int(next.Add(1)) - 1
				if ai >= len(p.assigns) {
					if s == 0 && wi < len(p.writes) {
						continue
					}
					return
				}
				p.aOut[ai] = send(clients[s], addr, start, p.assigns[ai])
			}
		}(s)
	}
	wg.Wait()
}

func send(c *http.Client, addr string, start time.Time, r request) outcome {
	sleepUntil(start.Add(r.at))
	o := outcome{sent: time.Since(start)}
	resp, err := c.Post("http://"+addr+r.path, "application/json", bytes.NewReader(r.body))
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = time.Since(start)
	o.err = err
	return o
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// runtime's timers wake sub-millisecond sleeps up to a millisecond late
// on Linux, which would put the generator's own lateness into every
// latency; a blocked thread wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// phaseStats summarises the assigns and writes of one or more phases.
type phaseStats struct {
	lat    []float64 // ms from due time; +Inf for a failed request
	client []float64 // ms from actual send, successful requests
	late   []float64 // ms the generator sent after the due time
	// writes: successful observe and publish latencies in ms
	observe, publish []float64
}

func stats(ps ...*phase) phaseStats {
	var st phaseStats
	for _, p := range ps {
		st.add(p)
	}
	return st
}

func (st *phaseStats) add(p *phase) {
	for i, o := range p.aOut {
		st.late = append(st.late, ms(o.sent-p.assigns[i].at))
		if !o.ok() {
			st.lat = append(st.lat, math.Inf(1))
			continue
		}
		st.lat = append(st.lat, ms(o.done-p.assigns[i].at))
		st.client = append(st.client, ms(o.done-o.sent))
	}
	for i, o := range p.wOut {
		if !o.ok() {
			continue
		}
		if p.writes[i].batch < 0 {
			st.publish = append(st.publish, ms(o.done-o.sent))
		} else {
			st.observe = append(st.observe, ms(o.done-o.sent))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// record appends the phase's answers and writes to the deployment for
// the correctness check. A failed request is counted, not checked; a
// failed write leaves the server's model unknown, so it fails the run.
func (d *deployment) record(p *phase) error {
	for i, o := range p.aOut {
		if o.ok() {
			d.answers = append(d.answers, answered{rows: p.assigns[i].rows, reply: o.body})
		}
	}
	for i, o := range p.wOut {
		if !o.ok() {
			return fmt.Errorf("%s %d failed (status %d, %v): the served model can no longer be checked",
				p.writes[i].path, i, o.status, o.err)
		}
		d.writes = append(d.writes, sentWrite{batch: p.writes[i].batch, reply: o.body})
	}
	return nil
}
