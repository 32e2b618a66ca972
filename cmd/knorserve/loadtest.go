package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/telemetry"
	"knor/internal/workload"
)

// assignReq and assignResp are the load-test client's view of a
// /v1/assign request and reply.
type assignReq struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

type assignResp struct {
	Version  int       `json:"version"`
	Clusters []int32   `json:"clusters"`
	SqDists  []float64 `json:"sqdists"`
}

type loadTestOptions struct {
	n, d, k    int
	clients    int
	requests   int
	rowsPerReq int
	seed       int64
}

// runLoadTest boots the server on a loopback listener, registers a
// model trained on an n×d dataset, and drives concurrent HTTP clients
// through /assign, reporting sustained request throughput and latency.
func runLoadTest(srv *server, opts loadTestOptions) error {
	spec := workload.Spec{
		Kind: workload.NaturalClusters, N: opts.n, D: opts.d,
		Clusters: opts.k, Spread: 0.05, Seed: opts.seed,
	}
	fmt.Printf("loadtest: generating %dx%d dataset, k=%d...\n", opts.n, opts.d, opts.k)
	data := workload.Generate(spec)

	// Seed centroids with k-means++ on a sample, then stream a slice of
	// the data through the updater — model quality only has to be
	// realistic, the bench measures the assignment path.
	t0 := time.Now()
	sample := sampleRows(data, min(opts.n, 100_000), opts.seed)
	cfg, err := kmeans.Config{K: opts.k, Init: kmeans.InitKMeansPP, Seed: opts.seed}.WithDefaults(sample.Rows())
	if err != nil {
		return err
	}
	seeds := kmeans.InitCentroidsFor(sample, cfg)
	snap, err := srv.register("bench", seeds)
	if err != nil {
		return err
	}
	eng := srv.streams["bench"]
	folded := min(opts.n, 200_000)
	for lo := 0; lo < folded; lo += 4096 {
		hi := min(lo+4096, folded)
		sub := &matrix.Dense{RowsN: hi - lo, ColsN: opts.d, Data: data.Data[lo*opts.d : hi*opts.d]}
		if _, err := eng.Observe(sub); err != nil {
			return err
		}
	}
	if _, err := eng.Publish(); err != nil {
		return err
	}
	fmt.Printf("loadtest: model %q v%d trained in %.1fs (%d seeded + %d streamed rows)\n",
		snap.Name, snap.Version+1, time.Since(t0).Seconds(), sample.Rows(), folded)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.mux()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Pre-marshal a pool of request bodies so client-side generation
	// cost stays off the measured path.
	qs := workload.NewQueryStream(spec, opts.seed+1)
	const pool = 512
	bodies := make([][]byte, pool)
	for i := range bodies {
		rows := qs.Next(opts.rowsPerReq)
		req := assignReq{Model: "bench", Rows: make([][]float64, rows.Rows())}
		for r := 0; r < rows.Rows(); r++ {
			req.Rows[r] = rows.Row(r)
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			return err
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        opts.clients * 2,
		MaxIdleConnsPerHost: opts.clients * 2,
	}}
	var next, failures atomic.Int64
	var wg sync.WaitGroup
	fmt.Printf("loadtest: %d clients x %d total /assign requests (%d rows each)...\n",
		opts.clients, opts.requests, opts.rowsPerReq)
	start := time.Now()
	for c := 0; c < opts.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(opts.requests) {
					return
				}
				resp, err := client.Post(base+"/v1/assign", "application/json",
					bytes.NewReader(bodies[i%pool]))
				if err != nil {
					failures.Add(1)
					continue
				}
				var ar assignResp
				if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil ||
					resp.StatusCode != http.StatusOK || len(ar.Clusters) != opts.rowsPerReq {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.batcher.Stats()
	ok := int64(opts.requests) - failures.Load()
	rps := float64(ok) / elapsed.Seconds()
	fmt.Printf("\nloadtest results (%dx%d, k=%d):\n", opts.n, opts.d, opts.k)
	fmt.Printf("  requests:    %d ok, %d failed in %.2fs\n", ok, failures.Load(), elapsed.Seconds())
	fmt.Printf("  throughput:  %.0f req/s (%.0f rows/s)\n", rps, rps*float64(opts.rowsPerReq))
	p50, p95, p99, mean := srv.edgeLatencyMS(telemetry.Default.Snapshot())
	fmt.Printf("  latency:     p50 %.3fms  p95 %.3fms  p99 %.3fms  mean %.3fms (server-side)\n",
		p50, p95, p99, mean)
	fmt.Printf("  batching:    %d flushes, %.1f rows/flush avg\n", st.Flushes, avgBatch(st))
	if failures.Load() > 0 {
		return fmt.Errorf("%d requests failed", failures.Load())
	}
	return nil
}

// sampleRows draws m distinct-ish rows uniformly (with replacement).
func sampleRows(data *matrix.Dense, m int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := matrix.NewDense(m, data.Cols())
	for i := 0; i < m; i++ {
		copy(out.Row(i), data.Row(rng.Intn(data.Rows())))
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
