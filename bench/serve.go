package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/workload"
)

const (
	modelName = "bench"
	bootLimit = 60 * time.Second
)

// deployment is one running knorserve: a single process, or a
// coordinator plus one worker process. procs[0] serves HTTP.
type deployment struct {
	shape serveShape
	procs []*proc
	addr  string // HTTP host:port of procs[0]
	// v1 is the trained model as read back from the -state snapshot.
	v1 *matrix.Dense
	// writes is every /v1/observe and /v1/publish sent so far, in order.
	writes []sentWrite
	// answers is every 200 /v1/assign reply, for the correctness check.
	answers []answered
}

// sentWrite is one write-stream request and the body of its reply.
type sentWrite struct {
	batch int // observe batch index, -1 for a publish
	reply []byte
}

// startDeployment boots knorserve in dir, trains the shape's model
// through POST /v1/models and waits until the model's first version is
// in the -state snapshot. traceEvery is knorserve's -trace-sample.
func startDeployment(bin, dir string, sh serveShape, seed int64, traceEvery int) (*deployment, error) {
	state := filepath.Join(dir, "state")
	args := []string{"-addr", "127.0.0.1:0", "-state", state, "-publish-every", "0",
		"-trace-sample", fmt.Sprint(traceEvery)}
	d := &deployment{shape: sh}
	if err := d.boot(bin, dir, args); err != nil {
		for _, p := range d.procs {
			p.kill()
		}
		return nil, err
	}
	if err := d.train(seed); err != nil {
		d.stop()
		return nil, err
	}
	v1, err := waitSnapshot(filepath.Join(state, "registry.json"))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.v1 = v1
	return d, nil
}

// boot starts the deployment's processes. A coordinator cannot serve
// HTTP until its worker has joined, so the worker starts once the
// coordinator's transport listens.
func (d *deployment) boot(bin, dir string, args []string) error {
	if !d.shape.Cluster {
		p, err := spawn("knorserve", bin, args, filepath.Join(dir, "knorserve.log"))
		if err != nil {
			return err
		}
		d.procs = []*proc{p}
		line, err := p.await("listening on", bootLimit)
		d.addr = listenAddr(line)
		return err
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	listen := fmt.Sprintf("127.0.0.1:%d", port)
	args = append(args, "-listen", listen, "-machines", "2", "-replicas", "1", "-threads", "1")
	coord, err := spawn("coordinator", bin, args, filepath.Join(dir, "coordinator.log"))
	if err != nil {
		return err
	}
	d.procs = []*proc{coord}
	if _, err := coord.await("waiting for", bootLimit); err != nil {
		return err
	}
	worker, err := spawn("worker", bin, []string{"-join", listen, "-threads", "1"}, filepath.Join(dir, "worker.log"))
	if err != nil {
		return err
	}
	d.procs = append(d.procs, worker)
	if _, err := worker.await("serving", bootLimit); err != nil {
		return err
	}
	line, err := coord.await("listening on", bootLimit)
	d.addr = listenAddr(line)
	return err
}

func listenAddr(line string) string {
	f := strings.Fields(line[strings.Index(line, "listening on")+len("listening on"):])
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("reserve a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// querySpec is the distribution the deployment's model is trained on
// and its queries and observations are drawn from.
func (sh serveShape) querySpec(seed int64) workload.Spec {
	return workload.Spec{Kind: workload.NaturalClusters, N: sh.SpecN, D: sh.D,
		Clusters: mixClusters, Spread: mixSpread, Seed: seed}
}

func (d *deployment) train(seed int64) error {
	sp := d.shape.querySpec(seed)
	body, _ := json.Marshal(map[string]any{
		"name": modelName, "k": d.shape.K, "iters": d.shape.SpecIters, "seed": seed, "threads": 1,
		"spec": map[string]any{"n": sp.N, "d": sp.D, "clusters": sp.Clusters, "spread": sp.Spread, "seed": sp.Seed},
	})
	c := &http.Client{Timeout: 120 * time.Second}
	resp, err := c.Post("http://"+d.addr+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("create model: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create model: %s: %s", resp.Status, msg)
	}
	return nil
}

// waitSnapshot polls the -state snapshot until it holds the model's
// first version and returns its centroids. knorserve writes the
// snapshot to a temporary file and renames it, so a read never sees a
// partial file.
func waitSnapshot(path string) (*matrix.Dense, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		reg, err := serve.LoadRegistry(path, 1)
		if err != nil {
			return nil, err
		}
		if reg != nil {
			if m, ok := reg.GetVersion(modelName, 1); ok {
				return m.Centroids, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no version 1 of %q in %s after 30s", modelName, path)
		}
		time.Sleep(time.Millisecond) // set-up time includes this wait: keep it fine-grained
	}
}

// stop shuts the deployment down: SIGTERM to the HTTP process, whose
// exit closes the transport and so ends the worker.
func (d *deployment) stop() {
	d.procs[0].stop(20 * time.Second)
	for _, p := range d.procs[1:] {
		p.wait(10 * time.Second)
	}
}

// hwmMB sums the peak resident set of the deployment's processes.
func (d *deployment) hwmMB() (float64, error) {
	var total float64
	for _, p := range d.procs {
		v, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// scrape reads the deployment's metrics: /metrics for a single process,
// the federated /metrics/cluster (every series labelled by rank) for a
// cluster.
func (d *deployment) scrape() (scrape, error) {
	path := "/metrics"
	if d.shape.Cluster {
		path = "/metrics/cluster"
	}
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + d.addr + path)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", path, resp.Status)
	}
	return parseProm(resp.Body)
}

// verify replays the write stream into an in-process stream engine
// seeded with the snapshot's first version, checks every write reply
// against it, then checks every assign answer against the exact
// single-node assigner for the version the answer names.
func (d *deployment) verify(batches func(int) *matrix.Dense) error {
	reg := serve.NewRegistry(1)
	mirror, err := serve.NewStreamEngine(modelName, d.v1, reg)
	if err != nil {
		return err
	}
	versions := map[int]*matrix.Dense{1: d.v1}
	for i, w := range d.writes {
		if w.batch < 0 {
			m, err := mirror.Publish()
			if err != nil {
				return err
			}
			versions[m.Version] = m.Centroids
			var got struct {
				Version int `json:"version"`
			}
			if err := json.Unmarshal(w.reply, &got); err != nil || got.Version != m.Version {
				return fmt.Errorf("write %d: publish answered %s, mirror published version %d", i, w.reply, m.Version)
			}
			continue
		}
		drift, err := mirror.Observe(batches(w.batch))
		if err != nil {
			return err
		}
		var got struct {
			Seen  int64   `json:"seen"`
			Drift float64 `json:"drift"`
		}
		if err := json.Unmarshal(w.reply, &got); err != nil {
			return fmt.Errorf("write %d: observe reply: %w", i, err)
		}
		if got.Seen != mirror.Seen() || math.Float64bits(got.Drift) != math.Float64bits(drift) {
			return fmt.Errorf("write %d: observe answered seen=%d drift=%v, mirror seen=%d drift=%v",
				i, got.Seen, got.Drift, mirror.Seen(), drift)
		}
	}
	return checkAnswers(versions, d.answers)
}
