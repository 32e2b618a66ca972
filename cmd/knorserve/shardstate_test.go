package main

// End-to-end tests of the PR-5 serving features: centroid-sharded
// assignment (-machines), per-model quotas with 429 backpressure
// (-quota), and snapshot persistence across a restart (-state).

import (
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
)

// TestE2EShardedAssign runs the same model on a single-node and a
// 4-machine server and checks the answers match exactly — the HTTP
// layer's view of the shardserve parity contract — at both precisions.
func TestE2EShardedAssign(t *testing.T) {
	create := `{"name":"s","k":7,"iters":15,"spec":{"n":500,"d":4,"clusters":7,"spread":0.05,"seed":3}}`
	q := `{"model":"s","rows":[[0.5,0.5,0.5,0.5],[0.1,0.9,0.1,0.9],[0.25,0.5,0.75,1.0]]}`
	for _, prec := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
		_, single := newTestServer(t, serverOptions{precision: prec})
		_, sharded := newTestServer(t, serverOptions{precision: prec, machines: 4})
		for _, ts := range []string{single.URL, sharded.URL} {
			if code, body := postJSON(t, ts+"/v1/models", create); code != http.StatusCreated {
				t.Fatalf("create: %d %v", code, body)
			}
		}
		_, bs := postJSON(t, single.URL+"/v1/assign", q)
		_, bh := postJSON(t, sharded.URL+"/v1/assign", q)
		if bs["version"] != bh["version"] {
			t.Fatalf("precision %v: version %v vs %v", prec, bs["version"], bh["version"])
		}
		cs, ch := bs["clusters"].([]any), bh["clusters"].([]any)
		ds, dh := bs["sqdists"].([]any), bh["sqdists"].([]any)
		for i := range cs {
			if cs[i] != ch[i] || ds[i] != dh[i] {
				t.Fatalf("precision %v row %d: single (%v, %v) vs sharded (%v, %v)",
					prec, i, cs[i], ds[i], ch[i], dh[i])
			}
		}
		var stats map[string]any
		getJSON(t, sharded.URL+"/v1/stats", &stats)
		if stats["machines"] != float64(4) {
			t.Fatalf("stats machines: %v", stats["machines"])
		}
	}
}

// TestE2EQuota429 parks one /assign's flush and checks the next
// request for that model is answered 429 with a Retry-After hint, on
// both the single-node and the sharded path.
func TestE2EQuota429(t *testing.T) {
	for _, machines := range []int{1, 3} {
		s, ts := newTestServer(t, serverOptions{quota: 1, machines: machines})
		if code, body := postJSON(t, ts.URL+"/v1/models",
			`{"name":"q","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`); code != http.StatusCreated {
			t.Fatalf("create: %d %v", code, body)
		}
		release := parkAssigns(t, s)
		parked := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/assign", "application/json",
				strings.NewReader(`{"model":"q","rows":[[0.5,0.5]]}`))
			if err != nil {
				t.Errorf("parked request: %v", err)
				parked <- 0
				return
			}
			resp.Body.Close()
			parked <- resp.StatusCode
		}()
		// Wait for the parked request to occupy the quota slot.
		waitFor(t, "the parked request to be admitted", func() bool {
			return s.batcher.InFlight()["q"] == 1
		})
		// An admitted request would block behind the parked flush, so
		// the client gives up after 10 s instead of hanging the test.
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Post(ts.URL+"/v1/assign", "application/json",
			strings.NewReader(`{"model":"q","rows":[[0.5,0.5]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("machines=%d: overloaded model answered %d, want 429", machines, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("machines=%d: 429 without Retry-After", machines)
		}
		release()
		if code := <-parked; code != http.StatusOK {
			t.Fatalf("machines=%d: parked request answered %d", machines, code)
		}
		var stats map[string]any
		getJSON(t, ts.URL+"/v1/stats", &stats)
		if stats["rejected"] != float64(1) {
			t.Errorf("machines=%d: rejected counter %v, want 1", machines, stats["rejected"])
		}
	}
}

// TestE2EStateRoundTrip boots a server with -state, publishes two
// versions, shuts down, boots a second server on the same directory
// and checks the models come back: same version (never backwards),
// same answers, and the stream path keeps working.
func TestE2EStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q := `{"model":"r","rows":[[0.3,0.7],[0.9,0.1]]}`

	s1, ts1 := newTestServer(t, serverOptions{stateDir: dir, publishEvery: 0})
	if code, body := postJSON(t, ts1.URL+"/v1/models",
		`{"name":"r","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, body := postJSON(t, ts1.URL+"/v1/observe",
		`{"model":"r","rows":[[0.6,0.4]]}`); code != http.StatusOK {
		t.Fatalf("observe: %d %v", code, body)
	}
	if code, body := postJSON(t, ts1.URL+"/v1/publish", `{"model":"r"}`); code != http.StatusOK ||
		body["version"] != float64(2) {
		t.Fatalf("publish: %d %v", code, body)
	}
	_, before := postJSON(t, ts1.URL+"/v1/assign", q)
	ts1.Close()
	s1.close() // final state save

	s2, ts2 := newTestServer(t, serverOptions{stateDir: dir, publishEvery: 0})
	defer func() { _ = s2 }()
	var models []modelInfo
	if code := getJSON(t, ts2.URL+"/v1/models", &models); code != http.StatusOK {
		t.Fatalf("list after restart: %d", code)
	}
	if len(models) != 1 || models[0].Name != "r" || models[0].Version != 2 || models[0].K != 2 {
		t.Fatalf("models after restart: %+v", models)
	}
	// The reloaded model answers identically (same centroid bits).
	code, after := postJSON(t, ts2.URL+"/v1/assign", q)
	if code != http.StatusOK {
		t.Fatalf("assign after restart: %d %v", code, after)
	}
	bc, ac := before["clusters"].([]any), after["clusters"].([]any)
	bd, ad := before["sqdists"].([]any), after["sqdists"].([]any)
	for i := range bc {
		if bc[i] != ac[i] || bd[i] != ad[i] {
			t.Fatalf("answers changed across restart: %v/%v vs %v/%v", bc, bd, ac, ad)
		}
	}
	if after["version"] != float64(2) {
		t.Fatalf("version after restart: %v, want 2", after["version"])
	}
	// The stream path resumed: observe and publish move to version 3.
	if code, body := postJSON(t, ts2.URL+"/v1/observe",
		`{"model":"r","rows":[[0.2,0.8]]}`); code != http.StatusOK {
		t.Fatalf("observe after restart: %d %v", code, body)
	}
	if code, body := postJSON(t, ts2.URL+"/v1/publish", `{"model":"r"}`); code != http.StatusOK ||
		body["version"] != float64(3) {
		t.Fatalf("publish after restart: %d %v", code, body)
	}
}

// TestStateOmitsFreshCheckpoint: the state file leaves out the stream
// checkpoint of an updater that has folded nothing since its model's
// latest version (just created, or published again without a fold), so
// it holds that model's centroids once, and a restart rebuilds every
// updater as it was: those from their models, the others from their
// checkpoints. One other has folded a row; three, loaded from an
// earlier file, have folded nothing but count fewer publishes than
// their model's versions, carry counts, or hold other centroids.
func TestStateOmitsFreshCheckpoint(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(1)
	c := &matrix.Dense{RowsN: 2, ColsN: 2, Data: []float64{0, 0.5, 1, 0.5}}
	earlier := []serve.StreamCheckpoint{
		{Model: "behind", Centroids: c, Counts: []int64{0, 0}, Published: 1},
		{Model: "counted", Centroids: c, Counts: []int64{0, 3}, Published: 2},
		{Model: "moved", Centroids: &matrix.Dense{RowsN: 2, ColsN: 2, Data: []float64{0, 0.5, 1, -0.5}},
			Counts: []int64{0, 0}, Published: 2},
	}
	for _, cp := range earlier {
		if _, err := reg.Restore(cp.Model, 2, 0, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := serve.SaveState(reg, earlier, filepath.Join(dir, "registry.json")); err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, serverOptions{stateDir: dir, publishEvery: 0})
	for _, name := range []string{"created", "republished", "folded"} {
		if code, body := postJSON(t, ts1.URL+"/v1/models",
			`{"name":"`+name+`","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`); code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", name, code, body)
		}
	}
	if code, body := postJSON(t, ts1.URL+"/v1/publish", `{"model":"republished"}`); code != http.StatusOK ||
		body["version"] != float64(2) {
		t.Fatalf("publish: %d %v", code, body)
	}
	if code, body := postJSON(t, ts1.URL+"/v1/observe", `{"model":"folded","rows":[[0.6,0.4]]}`); code != http.StatusOK {
		t.Fatalf("observe: %d %v", code, body)
	}
	want := map[string]serve.StreamCheckpoint{}
	for name, eng := range s1.streams {
		want[name] = eng.Checkpoint()
	}
	ts1.Close()
	s1.close() // final state save

	_, cps, err := serve.LoadState(filepath.Join(dir, "registry.json"), 1)
	if err != nil {
		t.Fatal(err)
	}
	var saved []string
	for _, cp := range cps {
		saved = append(saved, cp.Model)
	}
	if slices.Sort(saved); !slices.Equal(saved, []string{"behind", "counted", "folded", "moved"}) {
		t.Fatalf("state file holds checkpoints of %v, want all but the fresh ones", saved)
	}
	s2, _ := newTestServer(t, serverOptions{stateDir: dir, publishEvery: 0})
	if len(s2.streams) != len(want) {
		t.Fatalf("%d updaters after restart, want %d", len(s2.streams), len(want))
	}
	for name, w := range want {
		if got := s2.streams[name].Checkpoint(); !reflect.DeepEqual(got, w) {
			t.Errorf("%s after restart: %+v, want %+v", name, got, w)
		}
	}
}

// TestE2EStreamStateResume is the restart-in-the-middle-of-a-mini-batch
// contract: a server killed between publishes must come back with its
// stream updater's unpublished state (fold counts drive the learning
// rate), so observing the remaining rows and publishing lands on the
// same centroid bits an uninterrupted server produces. The restarted
// server's answers are compared against a never-restarted oracle fed
// the identical observation sequence.
func TestE2EStreamStateResume(t *testing.T) {
	create := `{"name":"m","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`
	batch1 := `{"model":"m","rows":[[0.1,0.2],[0.8,0.9],[0.4,0.6]]}`
	batch2 := `{"model":"m","rows":[[0.7,0.3],[0.2,0.2]]}`
	q := `{"model":"m","rows":[[0.3,0.7],[0.9,0.1],[0.5,0.5]]}`

	// Oracle: one server folds both batches with no interruption.
	_, oracle := newTestServer(t, serverOptions{publishEvery: 0})
	for _, step := range []string{create, batch1, batch2} {
		url, want := oracle.URL+"/v1/observe", http.StatusOK
		if step == create {
			url, want = oracle.URL+"/v1/models", http.StatusCreated
		}
		if code, body := postJSON(t, url, step); code != want {
			t.Fatalf("oracle step: %d %v", code, body)
		}
	}
	if code, body := postJSON(t, oracle.URL+"/v1/publish", `{"model":"m"}`); code != http.StatusOK {
		t.Fatalf("oracle publish: %d %v", code, body)
	}
	_, wantAns := postJSON(t, oracle.URL+"/v1/assign", q)

	// Same sequence with a full server restart between the batches.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, serverOptions{stateDir: dir, publishEvery: 0})
	if code, body := postJSON(t, ts1.URL+"/v1/models", create); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, body := postJSON(t, ts1.URL+"/v1/observe", batch1); code != http.StatusOK {
		t.Fatalf("observe batch1: %d %v", code, body)
	}
	ts1.Close()
	s1.close() // persists the mid-mini-batch stream checkpoint

	_, ts2 := newTestServer(t, serverOptions{stateDir: dir, publishEvery: 0})
	if code, body := postJSON(t, ts2.URL+"/v1/observe", batch2); code != http.StatusOK {
		t.Fatalf("observe batch2 after restart: %d %v", code, body)
	}
	if code, body := postJSON(t, ts2.URL+"/v1/publish", `{"model":"m"}`); code != http.StatusOK ||
		body["version"] != float64(2) {
		t.Fatalf("publish after restart: %d %v", code, body)
	}
	code, gotAns := postJSON(t, ts2.URL+"/v1/assign", q)
	if code != http.StatusOK {
		t.Fatalf("assign after restart: %d %v", code, gotAns)
	}
	wc, gc := wantAns["clusters"].([]any), gotAns["clusters"].([]any)
	wd, gd := wantAns["sqdists"].([]any), gotAns["sqdists"].([]any)
	for i := range wc {
		if wc[i] != gc[i] || wd[i] != gd[i] {
			t.Fatalf("row %d: resumed server answered (%v, %v), uninterrupted oracle (%v, %v)",
				i, gc[i], gd[i], wc[i], wd[i])
		}
	}
	if gotAns["version"] != wantAns["version"] {
		t.Fatalf("version %v after resume, oracle %v", gotAns["version"], wantAns["version"])
	}
}
