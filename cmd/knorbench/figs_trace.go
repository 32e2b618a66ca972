package main

import (
	"fmt"
	"math/rand"
	"time"

	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// traceExp measures what the observability layer costs on the serving
// hot path: the 1M x 16, k=100 /assign shape (the loadtest and
// EXPERIMENTS.md serving shape) pushed through the batcher with
// telemetry fully disabled, enabled, enabled with sampled tracing at
// the production default (1/1000) and the worst case (every request),
// and enabled with a concurrent federation-style registry scrape
// hammering Snapshot(). The contract documented in EXPERIMENTS.md is
// that production-rate tracing stays under a 2% throughput tax.
func traceExp(e env) {
	const (
		d, k  = 16, 100
		batch = 1024
	)
	rows := 1_000_000
	if e.quick {
		rows = 100_000
	}
	rng := rand.New(rand.NewSource(7))
	cents := matrix.NewDense(k, d)
	for i := range cents.Data {
		cents.Data[i] = rng.NormFloat64()
	}
	queries := matrix.New[float64](batch, d)
	for i := range queries.Data {
		queries.Data[i] = rng.NormFloat64()
	}
	batches := (rows + batch - 1) / batch

	run := func(enabled bool, traceEvery int, scrape bool) float64 {
		telemetry.SetEnabled(enabled)
		defer telemetry.SetEnabled(true)
		reg := serve.NewRegistry(1)
		if _, err := reg.Publish("m", cents); err != nil {
			panic(err)
		}
		var tracer *telemetry.Tracer
		if traceEvery > 0 {
			tracer = telemetry.NewTracer(traceEvery, 16)
		}
		bat := serve.NewBatcherOf[float64](reg, serve.BatcherOptions{Tracer: tracer})
		defer bat.Close()
		stopScrape := make(chan struct{})
		scrapeDone := make(chan struct{})
		if scrape {
			go func() {
				defer close(scrapeDone)
				t := time.NewTicker(10 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						telemetry.Default.Snapshot()
					case <-stopScrape:
						return
					}
				}
			}()
		}
		start := time.Now()
		for b := 0; b < batches; b++ {
			if _, err := bat.AssignBatch("m", queries); err != nil {
				panic(err)
			}
		}
		el := time.Since(start).Seconds()
		if scrape {
			close(stopScrape)
			<-scrapeDone
		}
		return el
	}

	type cfg struct {
		name       string
		enabled    bool
		traceEvery int
		scrape     bool
	}
	cfgs := []cfg{
		{"telemetry-off", false, 0, false},
		{"telemetry-on", true, 0, false},
		{"trace-1/1000", true, 1000, false},
		{"trace-1/1", true, 1, false},
		{"on+fed-scrape", true, 0, true},
	}
	// Warm up the kernels once so the first timed config isn't paying
	// for page faults and frequency ramp.
	run(false, 0, false)
	base := 0.0
	var out [][]string
	for _, c := range cfgs {
		el := run(c.enabled, c.traceEvery, c.scrape)
		if c.name == "telemetry-off" {
			base = el
		}
		over := (el/base - 1) * 100
		out = append(out, []string{
			c.name, fmtSec(el),
			fmt.Sprintf("%.0f", float64(rows)/el),
			fmt.Sprintf("%+.2f%%", over),
		})
	}
	fmt.Printf("  %d rows of d=%d against k=%d, batch=%d (the serving loadtest shape)\n\n",
		rows, d, k, batch)
	printTable([]string{"config", "wall-s", "rows/s", "overhead"}, out)
}
