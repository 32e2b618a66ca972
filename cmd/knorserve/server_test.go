package main

// End-to-end tests of the knorserve HTTP surface: the model lifecycle
// (create → list → assign → observe → publish → stats) and the
// malformed-input error paths, over a real httptest server.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
)

func newTestServer(t *testing.T, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	if opts.threads == 0 {
		opts.threads = 1
	}
	if opts.nodes == 0 {
		opts.nodes = 2
	}
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return s, ts
}

// parkAssigns parks s's /assign flushes until the returned release is
// called: it holds the write lock of every registry s's batchers read
// (the shard registries on a sharded server), so a flush parks in
// Registry.Get. It relies on the documented contract that OnPublish
// hooks run under the registry lock: each registry gets a hook that
// blocks on a channel, entered by a throwaway publish from a goroutine.
// The registries are also released at cleanup if the test ends first.
func parkAssigns(t *testing.T, s *server) (release func()) {
	t.Helper()
	regs := []*serve.Registry{s.reg}
	if s.shards != nil {
		regs = regs[:0]
		for m := 0; m < s.shards.Machines(); m++ {
			regs = append(regs, s.shards.Registry(m))
		}
	}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	release = sync.OnceFunc(func() {
		close(gate)
		wg.Wait()
	})
	t.Cleanup(release)
	for _, reg := range regs {
		held := make(chan struct{}, 1)
		reg.OnPublish(func(m *serve.Model) {
			if m.Name == "park" {
				held <- struct{}{}
				<-gate
			}
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Publish("park", matrix.NewDense(1, 1)); err != nil {
				t.Errorf("park publish: %v", err)
			}
		}()
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("park hook never ran")
		}
	}
	return release
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("POST %s: non-JSON response %q", url, raw)
		}
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestE2ELifecycle(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{publishEvery: 0})

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Create from a generated spec.
	code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"m","k":4,"iters":20,"spec":{"n":400,"d":4,"clusters":4,"spread":0.05,"seed":1}}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if body["name"] != "m" || body["version"] != float64(1) || body["k"] != float64(4) {
		t.Fatalf("create body: %v", body)
	}

	// List.
	var models []modelInfo
	if code := getJSON(t, ts.URL+"/v1/models", &models); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(models) != 1 || models[0].Name != "m" || models[0].D != 4 {
		t.Fatalf("list: %+v", models)
	}

	// Assign.
	code, body = postJSON(t, ts.URL+"/v1/assign", `{"model":"m","rows":[[0.1,0.2,0.3,0.4],[0.9,0.8,0.7,0.6]]}`)
	if code != http.StatusOK {
		t.Fatalf("assign: %d %v", code, body)
	}
	if cl := body["clusters"].([]any); len(cl) != 2 {
		t.Fatalf("assign clusters: %v", body)
	}
	if sq := body["sqdists"].([]any); len(sq) != 2 || sq[0].(float64) < 0 {
		t.Fatalf("assign sqdists: %v", body)
	}

	// Observe (manual publish mode: version stays 1).
	code, body = postJSON(t, ts.URL+"/v1/observe", `{"model":"m","rows":[[0.1,0.2,0.3,0.4]]}`)
	if code != http.StatusOK {
		t.Fatalf("observe: %d %v", code, body)
	}
	if body["seen"] != float64(1) || body["version"] != float64(1) {
		t.Fatalf("observe body: %v", body)
	}

	// Publish bumps the version.
	code, body = postJSON(t, ts.URL+"/v1/publish", `{"model":"m"}`)
	if code != http.StatusOK || body["version"] != float64(2) {
		t.Fatalf("publish: %d %v", code, body)
	}

	// Stats reflect the one assign call.
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats["requests"] != float64(1) || stats["rows"] != float64(2) {
		t.Fatalf("stats: %v", stats)
	}
	if stats["models"] != float64(1) || stats["precision"] != "64" {
		t.Fatalf("stats: %v", stats)
	}
}

func TestE2ECreateFromRowsMiniBatch(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	rows := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf("[%d,%d]", i%2*10, i%4))
	}
	body := fmt.Sprintf(`{"name":"mb","k":2,"engine":"minibatch","iters":5,"rows":[%s]}`, strings.Join(rows, ","))
	code, resp := postJSON(t, ts.URL+"/v1/models", body)
	if code != http.StatusCreated {
		t.Fatalf("create minibatch: %d %v", code, resp)
	}
	code, resp = postJSON(t, ts.URL+"/v1/assign", `{"model":"mb","rows":[[9.5,1.0]]}`)
	if code != http.StatusOK {
		t.Fatalf("assign: %d %v", code, resp)
	}
}

func TestE2EPrecision32(t *testing.T) {
	_, ts64 := newTestServer(t, serverOptions{})
	_, ts32 := newTestServer(t, serverOptions{precision: kmeans.Precision32})
	create := `{"name":"p","k":4,"iters":20,"spec":{"n":400,"d":4,"clusters":4,"spread":0.02,"seed":9}}`
	for _, ts := range []*httptest.Server{ts64, ts32} {
		if code, body := postJSON(t, ts.URL+"/v1/models", create); code != http.StatusCreated {
			t.Fatalf("create: %d %v", code, body)
		}
	}
	q := `{"model":"p","rows":[[0.5,0.5,0.5,0.5],[0.1,0.9,0.1,0.9]]}`
	_, b64 := postJSON(t, ts64.URL+"/v1/assign", q)
	_, b32 := postJSON(t, ts32.URL+"/v1/assign", q)
	c64 := b64["clusters"].([]any)
	c32 := b32["clusters"].([]any)
	for i := range c64 {
		if c64[i] != c32[i] {
			t.Fatalf("precision mismatch at %d: %v vs %v", i, c64, c32)
		}
	}
	var stats map[string]any
	getJSON(t, ts32.URL+"/v1/stats", &stats)
	if stats["precision"] != "32" {
		t.Fatalf("stats precision: %v", stats["precision"])
	}
}

func TestE2EErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"e","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`); code != http.StatusCreated {
		t.Fatalf("setup create: %d %v", code, body)
	}

	t.Run("malformed JSON", func(t *testing.T) {
		for _, ep := range []string{"/v1/models", "/v1/assign", "/v1/observe", "/v1/publish"} {
			code, body := postJSON(t, ts.URL+ep, `{"name": nope}`)
			if code != http.StatusBadRequest {
				t.Errorf("%s: %d, want 400", ep, code)
			}
			if _, ok := body["error"]; !ok {
				t.Errorf("%s: no error field: %v", ep, body)
			}
		}
	})
	t.Run("unknown model", func(t *testing.T) {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"ghost","rows":[[1,2]]}`); code != http.StatusBadRequest {
			t.Errorf("assign: %d", code)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/observe", `{"model":"ghost","rows":[[1,2]]}`); code != http.StatusNotFound {
			t.Errorf("observe: %d", code)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/publish", `{"model":"ghost"}`); code != http.StatusNotFound {
			t.Errorf("publish: %d", code)
		}
	})
	t.Run("bad create requests", func(t *testing.T) {
		if code, _ := postJSON(t, ts.URL+"/v1/models", `{"name":"e","k":2,"rows":[[0,0],[1,1]]}`); code != http.StatusConflict {
			t.Errorf("duplicate: %d", code)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/models", `{"name":"x","k":2}`); code != http.StatusBadRequest {
			t.Errorf("no rows/spec: %d", code)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/models",
			`{"name":"x","k":2,"engine":"quantum","rows":[[0,0],[1,1]]}`); code != http.StatusBadRequest {
			t.Errorf("bad engine: %d", code)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/models", `{"name":"x","k":2,"rows":[[0,0],[1]]}`); code != http.StatusBadRequest {
			t.Errorf("ragged rows: %d", code)
		}
	})
	t.Run("dim mismatch", func(t *testing.T) {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"e","rows":[[1,2,3]]}`); code != http.StatusBadRequest {
			t.Errorf("assign dims: %d", code)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/observe", `{"model":"e","rows":[[1,2,3]]}`); code != http.StatusBadRequest {
			t.Errorf("observe dims: %d", code)
		}
	})
	t.Run("overflowing rows", func(t *testing.T) {
		// 1e200² overflows float64: the distances would be +Inf, which
		// JSON cannot carry, and /v1/observe would fold the row in.
		for _, ep := range []string{"/v1/assign", "/v1/observe"} {
			code, body := postJSON(t, ts.URL+ep, `{"model":"e","rows":[[0,1],[1e200,1e200]]}`)
			if code != http.StatusBadRequest {
				t.Errorf("%s: %d, want 400", ep, code)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, "row 1") {
				t.Errorf("%s: error %q does not name row 1", ep, msg)
			}
		}
	})
	t.Run("null coordinate", func(t *testing.T) {
		for _, ep := range []string{"/v1/assign", "/v1/observe"} {
			code, body := postJSON(t, ts.URL+ep, `{"model":"e","rows":[[1,null]]}`)
			if code != http.StatusBadRequest {
				t.Errorf("%s: %d, want 400", ep, code)
			}
			if _, ok := body["error"]; !ok {
				t.Errorf("%s: no error field: %v", ep, body)
			}
		}
	})
	t.Run("GET body is not required", func(t *testing.T) {
		var models []modelInfo
		if code := getJSON(t, ts.URL+"/v1/models", &models); code != http.StatusOK {
			t.Errorf("list: %d", code)
		}
	})
}

// TestRetainAgeSweep checks the background sweeper (not just publish)
// ages out old versions: after the publishes stop, the stale version
// must still disappear within ~one sweep tick (clamped to 1s).
func TestRetainAgeSweep(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{retainAge: 50 * time.Millisecond})
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"r","k":2,"rows":[[0,0],[0,1],[9,0],[9,1]]}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/publish", `{"model":"r"}`); code != http.StatusOK {
		t.Fatal("publish failed")
	}
	if _, ok := s.reg.GetVersion("r", 1); !ok {
		t.Fatal("v1 missing before sweep")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := s.reg.GetVersion("r", 1); !ok {
			break // swept
		}
		if time.Now().After(deadline) {
			t.Fatal("stale version never swept")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The latest version survives any sweep.
	if m, ok := s.reg.Get("r"); !ok || m.Version != 2 {
		t.Fatal("latest lost")
	}
}

func TestE2EAutoPublish(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{publishEvery: 4})
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"ap","k":2,"rows":[[0,0],[0,1],[10,0],[10,1]]}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	// 4 observed rows trigger one auto-publish (version 2).
	code, body := postJSON(t, ts.URL+"/v1/observe",
		`{"model":"ap","rows":[[0,0.5],[10,0.5],[0,0.2],[10,0.2]]}`)
	if code != http.StatusOK {
		t.Fatalf("observe: %d %v", code, body)
	}
	if body["version"] != float64(2) {
		t.Fatalf("auto-publish version: %v", body)
	}
}

// TestE2EZeroDimCreateRejected pins the boundary fix: training rows
// with zero dimensions (or an empty spec shape) must be a clean 400,
// not a panic inside the distance kernels.
func TestE2EZeroDimCreateRejected(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	for _, body := range []string{
		`{"name":"z","k":2,"rows":[[]]}`,
		`{"name":"z","k":2,"rows":[[],[]]}`,
		`{"name":"z","k":2,"spec":{"n":10,"d":0,"clusters":2}}`,
		`{"name":"z","k":2,"spec":{"n":0,"d":4,"clusters":2}}`,
	} {
		code, resp := postJSON(t, ts.URL+"/v1/models", body)
		if code != http.StatusBadRequest {
			t.Errorf("create %s: code %d (%v), want 400", body, code, resp)
		}
	}
	// The server still works after the rejected creates.
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"ok","k":2,"spec":{"n":100,"d":4,"clusters":2,"seed":1}}`); code != http.StatusCreated {
		t.Fatalf("create after rejections: %d %v", code, body)
	}
}

// byteRepeater is a request body that never ends: every read fills
// its buffer with the one byte.
type byteRepeater byte

func (b byteRepeater) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestBodyCapped checks that request bodies stop at maxBodyBytes: a
// /v1/assign body twice the cap and a /v1/models body one byte past it
// each answer 413 once the cap is read, and the handler returns. A
// server that read either body whole would answer 400, an unterminated
// string. A normal request answers after both.
func TestBodyCapped(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"ok","k":2,"spec":{"n":100,"d":4,"clusters":2,"seed":1}}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for _, c := range []struct {
		path, prefix string
		size         int64
	}{
		{"/v1/assign", `{"model":"`, 2 * maxBodyBytes},
		{"/v1/models", `{"name":"`, maxBodyBytes + 1},
	} {
		body := io.LimitReader(io.MultiReader(strings.NewReader(c.prefix), byteRepeater('a')), c.size)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, body))
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("POST %s: handler still reading after 30 s", c.path)
		}
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s of %d bytes: code %d (%.200s), want 413", c.path, c.size, rec.Code, rec.Body)
		}
	}
	if code, body := postJSON(t, ts.URL+"/v1/assign", `{"model":"ok","rows":[[0,0,0,0]]}`); code != http.StatusOK {
		t.Fatalf("assign after the capped bodies: %d %v", code, body)
	}
}

// TestBodyShapeCapped checks that a body under maxBodyBytes still stops
// at one cluster frame's worth of rows or coordinates: /v1/assign and
// /v1/observe answer 413 on a body one coordinate past maxCoords (rows
// of [0,0,0,0], the last one [0]) or one row past maxRows (empty rows),
// on a single node and on a sharded server, and the next request
// answers 200.
func TestBodyShapeCapped(t *testing.T) {
	bodies := map[string]string{
		"coordinate": `{"model":"ok","rows":[` + strings.Repeat("[0,0,0,0],", maxCoords/4) + "[0]]}",
		"row":        `{"model":"ok","rows":[` + strings.Repeat("[],", maxRows) + "[]]}",
	}
	for _, opts := range []serverOptions{{}, {machines: 2}} {
		_, ts := newTestServer(t, opts)
		if code, body := postJSON(t, ts.URL+"/v1/models",
			`{"name":"ok","k":2,"spec":{"n":100,"d":4,"clusters":2,"seed":1}}`); code != http.StatusCreated {
			t.Fatalf("machines=%d create: %d %v", opts.machines, code, body)
		}
		for _, path := range []string{"/v1/assign", "/v1/observe"} {
			for past, body := range bodies {
				if code, reply := postJSON(t, ts.URL+path, body); code != http.StatusRequestEntityTooLarge {
					t.Fatalf("machines=%d POST %s one %s past the cap: code %d (%.200v), want 413",
						opts.machines, path, past, code, reply)
				}
			}
		}
		if code, body := postJSON(t, ts.URL+"/v1/assign", `{"model":"ok","rows":[[0,0,0,0]]}`); code != http.StatusOK {
			t.Fatalf("machines=%d assign after the capped bodies: %d %v", opts.machines, code, body)
		}
	}
}
