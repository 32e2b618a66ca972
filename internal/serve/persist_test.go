package serve

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knor/internal/matrix"
)

func testCentroids(k, d int, base float64) *matrix.Dense {
	c := matrix.NewDense(k, d)
	for i := range c.Data {
		c.Data[i] = base + float64(i)*0.25
	}
	return c
}

// TestRegistryPersistRoundTrip: save a registry with multi-version
// models, load it back, and check the latest snapshots come back with
// version numbers, node pins and centroid bits intact.
func TestRegistryPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")

	r := NewRegistry(4)
	if _, err := r.Publish("a", testCentroids(3, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("a", testCentroids(3, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("b", testCentroids(5, 7, 20)); err != nil {
		t.Fatal(err)
	}
	if err := SaveRegistry(r, path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadRegistry(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LoadRegistry returned nil for an existing file")
	}
	for _, name := range []string{"a", "b"} {
		want, _ := r.Get(name)
		m, ok := got.Get(name)
		if !ok {
			t.Fatalf("model %q lost in round trip", name)
		}
		if m.Version != want.Version || m.Node != want.Node {
			t.Errorf("model %q: version/node %d/%d, want %d/%d",
				name, m.Version, m.Node, want.Version, want.Node)
		}
		if !m.Centroids.Equal(want.Centroids, 0) {
			t.Errorf("model %q centroids differ after round trip", name)
		}
		if len(m.NormsSq) != m.K() {
			t.Errorf("model %q norms not rebuilt", name)
		}
	}

	// Versions keep moving forward after a reload — a restarted server
	// must never hand out a version the old one already used.
	m, err := got.Publish("a", testCentroids(3, 2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 {
		t.Errorf("post-reload publish version %d, want 3", m.Version)
	}
}

func TestLoadRegistryMissingFile(t *testing.T) {
	r, err := LoadRegistry(filepath.Join(t.TempDir(), "absent.json"), 2)
	if err != nil {
		t.Fatalf("missing state file should be a clean first boot, got %v", err)
	}
	if r != nil {
		t.Fatal("missing state file returned a registry")
	}
}

func TestLoadRegistryCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	for _, c := range []struct {
		name, body string
		model      string // quoted model name the error must carry, if any
	}{
		{"not json", "{not json", ""},
		{"shape mismatch", `{"models":[{"name":"x","version":1,"rows":2,"cols":2,"data":[1]}]}`, `"x"`},
		// A float32 publish as an older binary saved it: base64 float32
		// in data32 and no data. That format is gone, so the file must
		// not load as a zero-filled model.
		{"float32 publish", `{"models":[{"name":"f32","version":3,"node":1,"rows":2,"cols":2,"elem":4,"data32":"AACAPwAAAEAAAEBAAACAQA=="}]}`, `"f32"`},
		{"truncated float32 publish", `{"models":[{"name":"f32","version":1,"rows":2,"cols":2,"elem":4,"data32":"AAAA"}]}`, `"f32"`},
		// Shapes whose rows×cols wraps to the number of values held: a
		// model claiming 2^32×2^32 with no data (its restore would
		// allocate that many centroids), and a checkpoint claiming
		// 4×2^62 with four counts and no values.
		{"model shape overflows", `{"models":[{"name":"m","version":1,"node":0,"rows":4294967296,"cols":4294967296}]}`, `"m"`},
		{"stream shape overflows", `{"models":null,"streams":[{"model":"s","seen":0,"published":0,"counts":[1,2,3,4],"rows":4,"cols":4611686018427387904,"data":[]}]}`, `"s"`},
	} {
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRegistry(path, 2)
		if err == nil {
			t.Errorf("%s: state file loaded without error", c.name)
		} else if !strings.Contains(err.Error(), c.model) {
			t.Errorf("%s: error %q does not name model %s", c.name, err, c.model)
		}
	}
}

// TestRegistryRestore covers the loader's entry point directly:
// explicit versions, monotonicity, dims checks.
func TestRegistryRestore(t *testing.T) {
	r := NewRegistry(2)
	if _, err := r.Restore("m", 5, 1, testCentroids(2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Get("m")
	if m.Version != 5 || m.Node != 1 {
		t.Fatalf("restored version/node %d/%d", m.Version, m.Node)
	}
	if _, err := r.Restore("m", 5, 1, testCentroids(2, 3, 1)); err == nil {
		t.Error("stale restore accepted")
	}
	if _, err := r.Restore("m", 6, 1, testCentroids(2, 4, 1)); err == nil {
		t.Error("dims change accepted")
	}
	if _, err := r.Restore("m", 0, 1, testCentroids(2, 3, 1)); err == nil {
		t.Error("version 0 accepted")
	}
	if _, err := r.Restore("", 1, 0, testCentroids(2, 3, 1)); err == nil {
		t.Error("empty name accepted")
	}
	// Publish continues from the restored version.
	p, err := r.Publish("m", testCentroids(2, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 6 {
		t.Errorf("publish after restore: version %d, want 6", p.Version)
	}
}

// TestStreamStatePersistRoundTrip: the resume-after-restart contract.
// An engine checkpointed mid-stream, persisted with SaveState, loaded
// with LoadState and resumed must fold the remaining batches to
// bit-identical centroids with an engine that never stopped — counts
// drive the mini-batch learning rate, so they must survive exactly.
func TestStreamStatePersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")

	batch := func(base float64) *matrix.Dense {
		b := matrix.NewDense(8, 3)
		for i := range b.Data {
			b.Data[i] = base + float64(i%5)*0.5
		}
		return b
	}

	// Uninterrupted oracle: seed, fold two batches.
	oreg := NewRegistry(1)
	oracle, err := NewStreamEngine("m", testCentroids(4, 3, 0), oreg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Observe(batch(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Observe(batch(2)); err != nil {
		t.Fatal(err)
	}

	// Restarted path: fold batch 1, persist, reload, resume, fold batch 2.
	reg := NewRegistry(1)
	eng, err := NewStreamEngine("m", testCentroids(4, 3, 0), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Observe(batch(1)); err != nil {
		t.Fatal(err)
	}
	if err := SaveState(reg, []StreamCheckpoint{eng.Checkpoint()}, path); err != nil {
		t.Fatal(err)
	}

	reg2, cps, err := LoadState(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].Model != "m" {
		t.Fatalf("loaded %d checkpoints: %+v", len(cps), cps)
	}
	if cps[0].Seen != 8 || cps[0].Published != 1 {
		t.Fatalf("checkpoint carries seen=%d published=%d", cps[0].Seen, cps[0].Published)
	}
	resumed, err := ResumeStreamEngine(cps[0], reg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Observe(batch(2)); err != nil {
		t.Fatal(err)
	}

	want, got := oracle.Centroids(), resumed.Centroids()
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("element %d differs after resume: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	if resumed.Seen() != oracle.Seen() {
		t.Fatalf("seen %d vs %d", resumed.Seen(), oracle.Seen())
	}
	// Publishing from the resumed engine continues the version sequence.
	snap, err := resumed.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Fatalf("resumed publish landed at version %d, want 2", snap.Version)
	}
}

// TestLoadStatePreStreamFile: files written before stream checkpoints
// existed load with models intact and no checkpoints.
func TestLoadStatePreStreamFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	r := NewRegistry(1)
	if _, err := r.Publish("a", testCentroids(3, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := SaveRegistry(r, path); err != nil {
		t.Fatal(err)
	}
	r2, cps, err := LoadState(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cps != nil {
		t.Fatalf("unexpected checkpoints: %+v", cps)
	}
	if _, ok := r2.Get("a"); !ok {
		t.Fatal("model missing after load")
	}
}

// TestLoadStateRejectsMalformedStream: a stream block whose shape
// lies is rejected loudly, not resumed half-right.
func TestLoadStateRejectsMalformedStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	blob := `{"models":[{"name":"a","version":1,"rows":1,"cols":1,"data":[1]}],` +
		`"streams":[{"model":"a","rows":2,"cols":2,"counts":[1],"data":[1,2,3]}]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadState(path, 1); err == nil {
		t.Fatal("malformed stream block should fail the load")
	}
}
