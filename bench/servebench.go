package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// servingRun drives one deployment open loop: an untimed warm-up, then
// chunks of the low and the high phase, interleaved with the rest of the
// run's measurements. End-to-end latencies pool each phase's chunks;
// per-layer numbers come from the deployment's metrics, scraped around
// every high chunk. Every answer and write is checked at the end.
type servingRun struct {
	c         runConfig
	prefix    string
	d         *deployment
	t         *traffic
	clients   []*http.Client
	r         *result
	obs       int      // next observe batch
	low, high []*phase // the measured chunks
	diff      scrape   // metric changes summed over the high chunks
	last      scrape   // the last scrape, for lifetime counters
}

func newServingRun(c runConfig, prefix string, d *deployment, r *result) *servingRun {
	return &servingRun{c: c, prefix: prefix, d: d, t: newTraffic(d.shape, c.seed),
		clients: newSenderClients(), r: r, diff: scrape{}}
}

// phase sends rate requests per second for dur, after a collection so
// the generator's process does not collect while it sends, and records
// the outcome for the checks.
func (s *servingRun) phase(rate float64, dur time.Duration) (*phase, error) {
	p := s.t.plan(rate, dur, s.obs)
	runtime.GC()
	p.run(s.d.addr, s.clients)
	s.obs += observes(p.writes)
	s.r.count(p)
	return p, s.d.record(p)
}

// chunk runs one measured chunk of the low or the high phase.
func (s *servingRun) chunk(rate float64, dur time.Duration, high bool) error {
	if !high {
		p, err := s.phase(rate, dur)
		s.low = append(s.low, p)
		if err != nil {
			return fmt.Errorf("%s low phase: %w", s.prefix, err)
		}
		return nil
	}
	before, err := s.d.scrape()
	if err != nil {
		return err
	}
	p, err := s.phase(rate, dur)
	s.high = append(s.high, p)
	if err != nil {
		return fmt.Errorf("%s high phase: %w", s.prefix, err)
	}
	if s.last, err = s.d.scrape(); err != nil {
		return err
	}
	for k, v := range s.last.sub(before) {
		s.diff[k] += v
	}
	return nil
}

// finish sets the deployment's metrics and checks every answer.
func (s *servingRun) finish() error {
	defer closeIdle(s.clients)
	r, prefix, sh := s.r, s.prefix, s.d.shape
	ls, hs := stats(s.low...), stats(s.high...)
	for _, p := range []struct {
		name string
		st   phaseStats
	}{{"low", ls}, {"high", hs}} {
		if err := r.setPercentile(prefix+"_p50_ms."+p.name, p.st.lat, 0.50, s.c); err != nil {
			return err
		}
		if err := r.setPercentile(prefix+"_p90_ms."+p.name, p.st.lat, 0.90, s.c); err != nil {
			return err
		}
	}
	late := append(append([]float64(nil), ls.late...), hs.late...)
	if err := r.setPercentile(prefix+".gen_late_ms.p90", late, 0.90, s.c); err != nil {
		return err
	}
	r.set(prefix+".gen_sent", float64(len(ls.lat)+len(hs.lat)), 0)
	hwm, err := s.d.hwmMB()
	if err != nil {
		return err
	}
	r.set(prefix+"_mb", hwm, 0)
	r.layers(prefix, sh, s.diff, s.last, mean(hs.client))
	if sh.Cluster {
		obsMS := append(append([]float64(nil), ls.observe...), hs.observe...)
		pubMS := append(append([]float64(nil), ls.publish...), hs.publish...)
		r.set("write.observe_ms.mean", mean(obsMS), len(obsMS))
		r.set("write.publish_ms.mean", mean(pubMS), len(pubMS))
	}
	if err := s.d.verify(s.t.batch); err != nil {
		return fmt.Errorf("%s answer check: %w", prefix, err)
	}
	return nil
}

// count adds a phase's requests and failures to the run's totals.
func (r *result) count(p *phase) {
	r.Attempted += len(p.assigns) + len(p.writes)
	for _, outs := range [][]outcome{p.aOut, p.wOut} {
		for _, o := range outs {
			if !o.ok() {
				r.Failed++
			}
		}
	}
}

// setPercentile sets name to the q-quantile of xs. A percentile without
// enough samples beyond it is a sizing error, except in toy runs.
func (r *result) setPercentile(name string, xs []float64, q float64, c runConfig) error {
	v, ok := percentile(xs, q)
	if !ok {
		if !c.toy {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile", name, len(xs), minTail)
		}
		v = sorted(xs)[len(xs)-1]
	}
	r.set(name, min(v, requestLimit*1e3), len(xs))
	return nil
}

// layers sets the per-layer metrics of one deployment from the metrics
// diff over its high phase. client is the mean client-side latency from
// actual send to last byte; everything the server's own histograms do
// not cover is wire time (client − HTTP handler).
func (r *result) layers(prefix string, sh serveShape, d, total scrape, client float64) {
	set := func(name string, v float64) { r.set(prefix+"."+name, v, 0) }
	rank0 := []string{}
	edgeName, shardK := "knor_serve_request_seconds", sh.K
	if sh.Cluster {
		rank0 = []string{"rank", "0"}
		edgeName, shardK = "knor_shardserve_request_seconds", sh.K/2
	}
	httpMS := d.histMean("knor_http_request_seconds", rank0...) * 1e3
	edge := d.histMean(edgeName, rank0...) * 1e3
	gemm := d.histMean("knor_serve_gemm_seconds") * 1e3
	set("client_ms.mean", client)
	set("wire_ms.mean", client-httpMS)
	set("http_self_ms.mean", httpMS-edge)
	set("edge_ms.mean", edge)
	set("wait_ms.mean", edge-gemm)
	set("gemm_ms.mean", gemm)
	rows := d.histMean("knor_serve_batch_rows")
	set("rows_per_flush", rows)
	set("flush_fill_frac", rows/serveMaxBatch)
	set("gflops", 2*float64(shardK*sh.D)*d.sum("knor_serve_batch_rows_sum")/d.sum("knor_serve_gemm_seconds_sum")/1e9)
	r.note("%s GEMM kernel: %s", prefix, strings.Join(gemmKernels(d), ", "))
	if !sh.Cluster {
		return
	}
	reqs := d.sum("knor_shardserve_requests_total", rank0...)
	set("shard_ms.local", d.histMean("knor_shardserve_shard_seconds", "rank", "0", "shard", "0")*1e3)
	set("shard_ms.remote", d.histMean("knor_shardserve_shard_seconds", "rank", "0", "shard", "1")*1e3)
	set("minreduce_ms.mean", d.histMean("knor_shardserve_minreduce_seconds", rank0...)*1e3)
	set("spread_mb", total.sum("knor_shardserve_spread_bytes_total", rank0...)/1e6)
	r.set("net.rtt_ms.mean", d.histMean("knor_net_roundtrip_seconds", rank0...)*1e3, 0)
	r.set("net.bytes_per_req", d.sum("knor_net_bytes_total", rank0...)/reqs, 0)
	r.set("net.frames_per_req", d.sum("knor_net_frames_total", rank0...)/reqs, 0)
	r.note("%s: %g skew retries, %g failovers over the high phase (failovers expected 0)",
		prefix, d.sum("knor_shardserve_skew_retries_total"), d.sum("knor_shardserve_failovers_total"))
}

// gemmKernels names the GEMM implementations that ran during the diff,
// from knor_blas_gemm_dispatch_total{kernel}.
func gemmKernels(d scrape) []string {
	seen := map[string]bool{}
	for k, v := range d {
		if se, err := parseSeries(k); err == nil && se.name == "knor_blas_gemm_dispatch_total" && v > 0 {
			seen[se.labels["kernel"]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tracedServing replays the high phase against the deployment started
// with -trace-sample 1. It records a client span per request and polls
// /debug/traces for the server's stage spans; the ring keeps only the
// last 16 traces, so the poll samples them. trace_overhead is the
// traced median latency over the untraced one.
func tracedServing(c runConfig, prefix string, d *deployment, dur time.Duration, rec *recorder, r *result) error {
	s := newServingRun(c, prefix, d, r)
	defer closeIdle(s.clients)
	if _, err := s.phase(d.shape.Low, c.warmup); err != nil {
		return fmt.Errorf("%s traced warm-up: %w", prefix, err)
	}
	before, err := d.scrape()
	if err != nil {
		return err
	}
	p := s.t.plan(d.shape.High, dur, s.obs)
	start := time.Now()
	poll := startPoll(d.addr, rec, prefix, start)
	p.run(d.addr, s.clients)
	traces := poll.stop()
	after, err := d.scrape()
	if err != nil {
		return err
	}
	r.count(p)
	if err := d.record(p); err != nil {
		return fmt.Errorf("%s traced phase: %w", prefix, err)
	}
	for i, o := range p.aOut {
		trace := fmt.Sprintf("%s/request-%d", prefix, i)
		at := start.Add(p.assigns[i].at)
		root := rec.add(trace, prefix+"/client", 0, at, start.Add(o.done))
		rec.add(trace, prefix+"/client.queue", root, at, start.Add(o.sent))
		rec.add(trace, prefix+"/client.http", root, start.Add(o.sent), start.Add(o.done))
	}
	st := stats(p)
	r.set("trace_overhead."+prefix, median(st.lat)/r.Metrics[prefix+"_p50_ms.high"], len(st.lat))
	edgeName := "knor_serve_request_seconds"
	if d.shape.Cluster {
		edgeName = "knor_shardserve_request_seconds"
	}
	var totals []float64
	for _, tr := range traces {
		totals = append(totals, tr.TotalUS/1e3)
	}
	edge := after.sub(before).histMean(edgeName) * 1e3
	r.note("%s traced pass: %d server traces polled, mean %.4f ms; edge histogram mean %.4f ms over the same phase (ratio %.3f)",
		prefix, len(traces), mean(totals), edge, mean(totals)/edge)
	if err := d.verify(s.t.batch); err != nil {
		return fmt.Errorf("%s traced answer check: %w", prefix, err)
	}
	return nil
}

// serverTrace is one entry of knorserve's /debug/traces.
type serverTrace struct {
	TraceID string    `json:"trace_id"`
	Begin   time.Time `json:"begin"`
	TotalUS float64   `json:"total_us"`
	Stages  []struct {
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	} `json:"stages"`
}

// poller fetches /debug/traces every 50 ms until stopped and records
// each trace it has not seen as a server span with its stages nested
// under it.
type poller struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	seen  map[string]serverTrace
}

func startPoll(addr string, rec *recorder, prefix string, since time.Time) *poller {
	p := &poller{stopc: make(chan struct{}), seen: map[string]serverTrace{}}
	c := &http.Client{Timeout: 2 * time.Second}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			p.fetch(c, addr, rec, prefix, since)
			select {
			case <-t.C:
			case <-p.stopc:
				p.fetch(c, addr, rec, prefix, since)
				return
			}
		}
	}()
	return p
}

// fetch records the traces that began at or after since and were not
// seen before.
func (p *poller) fetch(c *http.Client, addr string, rec *recorder, prefix string, since time.Time) {
	resp, err := c.Get("http://" + addr + "/debug/traces")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var body struct {
		Traces []serverTrace `json:"traces"`
	}
	if json.NewDecoder(resp.Body).Decode(&body) != nil {
		return
	}
	for _, tr := range body.Traces {
		if _, ok := p.seen[tr.TraceID]; ok || tr.TotalUS <= 0 || tr.Begin.Before(since) {
			continue
		}
		p.seen[tr.TraceID] = tr
		trace := prefix + "/server-" + tr.TraceID
		begin := float64(tr.Begin.Sub(rec.t0).Nanoseconds()) / 1e3
		root := rec.addUS(trace, prefix+"/server", 0, begin, begin+tr.TotalUS)
		names := make([]string, len(tr.Stages))
		for i, st := range tr.Stages {
			names[i] = st.Name
		}
		parents := stageParents(names)
		ids := make([]int, len(tr.Stages))
		for _, i := range parentsFirst(parents) {
			parent := root
			if parents[i] >= 0 {
				parent = ids[parents[i]]
			}
			st := tr.Stages[i]
			ids[i] = rec.addUS(trace, prefix+"/"+st.Name, parent, begin+st.StartUS, begin+st.StartUS+st.DurUS)
		}
	}
}

func (p *poller) stop() []serverTrace {
	close(p.stopc)
	p.wg.Wait()
	out := make([]serverTrace, 0, len(p.seen))
	for _, tr := range p.seen {
		out = append(out, tr)
	}
	return out
}

// parentsFirst lists the top-level stages, then the nested ones (a
// parent is always top level).
func parentsFirst(parents []int) []int {
	var top, nested []int
	for i, p := range parents {
		if p < 0 {
			top = append(top, i)
		} else {
			nested = append(nested, i)
		}
	}
	return append(top, nested...)
}

func closeIdle(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}
