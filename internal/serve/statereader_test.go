package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"knor/internal/matrix"
)

// The state file's schema with plain []float64 data, as LoadState
// decoded it before floats: FuzzLoadState holds floats to it.
type (
	plainModel struct {
		Name    string    `json:"name"`
		Version int       `json:"version"`
		Node    int       `json:"node"`
		Rows    int       `json:"rows"`
		Cols    int       `json:"cols"`
		Data    []float64 `json:"data,omitempty"`
	}
	plainStream struct {
		Model     string    `json:"model"`
		Seen      int64     `json:"seen"`
		Published int       `json:"published"`
		Counts    []int64   `json:"counts"`
		Rows      int       `json:"rows"`
		Cols      int       `json:"cols"`
		Data      []float64 `json:"data"`
	}
	plainRegistry struct {
		Models  []plainModel  `json:"models"`
		Streams []plainStream `json:"streams,omitempty"`
	}
)

// plain converts a decoded state to the plain schema, keeping nil and
// empty slices apart.
func plain(pf persistedRegistry) plainRegistry {
	var out plainRegistry
	if pf.Models != nil {
		out.Models = make([]plainModel, len(pf.Models))
	}
	for i, m := range pf.Models {
		out.Models[i] = plainModel{Name: m.Name, Version: m.Version, Node: m.Node, Rows: m.Rows, Cols: m.Cols, Data: m.Data}
	}
	if pf.Streams != nil {
		out.Streams = make([]plainStream, len(pf.Streams))
	}
	for i, s := range pf.Streams {
		out.Streams[i] = plainStream{Model: s.Model, Seen: s.Seen, Published: s.Published, Counts: s.Counts,
			Rows: s.Rows, Cols: s.Cols, Data: s.Data}
	}
	return out
}

// sameBits reports whether a and b hold the same float bits, so -0 and
// 0 differ where reflect.DeepEqual finds them equal.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzLoadState holds the state file's float arrays, read through
// jsonfloat.Scan, to encoding/json's []float64: any bytes decode to the
// same state, nil and empty slices and float bits included, under both
// schemas, or fail under both.
func FuzzLoadState(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	c := matrix.NewDense(3, 2)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	var state bytes.Buffer
	cp := StreamCheckpoint{Model: "m", Centroids: c, Counts: []int64{1, 2, 3}, Seen: 6, Published: 1}
	if err := writeState(&state, []*Model{{Name: "m", Version: 2, Centroids: c}}, []StreamCheckpoint{cp}); err != nil {
		f.Fatal(err)
	}
	f.Add(state.Bytes())
	for _, s := range []string{
		`{"models":[{"name":"m","version":1,"rows":1,"cols":2,"data":[1,null]}]}`,
		`{"models":[{"data":[1,2,3],"data":[5],"data":[null,null,null]}]}`,
		`{"models":[{"data":[1,2],"data":[null,null,null,null]}]}`,
		`{"models":[{"data":[1,2],"DATA":null}],"streams":[{"data":[]}]}`,
		`{"models":[{"data":[]}],"streams":[{"data":null,"Data":[7]}]}`,
		`{"models":[{"data":[-0,1e-400,5e-324,1.7976931348623157e308]}]}`,
		`{"models":[{"data":[1e400]}]}`,
		`{"models":[{"data":[1,1e400]}]}`,
		`{"models":[{"data":"x"}]}`,
		`{"models":[{"data":{"a":1}}]}`,
		`{"models":[{"data":[1,"2,3"]}]}`,
		`{"models":[{"data":[1,[2,3]]}]}`,
		`{"models":[{"data":[1,true]}]}`,
		`{"models":[{"data":5}]}`,
		`{"models":[{"data": [ 1 ,	2 ] }]}`,
		`{"models":[{"data":[1,]}]}`,
		`{"models":[{"data":[01]}]}`,
		`{"models":null,"streams":[{"data":[0.1,0.2],"counts":null}]}`,
		`{"models":[null,{"data":[3]}]}`,
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want plainRegistry
		werr := json.Unmarshal(b, &want)
		var pf persistedRegistry
		err := json.Unmarshal(b, &pf)
		if (werr == nil) != (err == nil) {
			t.Fatalf("%q: []float64 decodes with error %v, floats with %v", b, werr, err)
		}
		if err != nil {
			return
		}
		got := plain(pf)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: floats decode\n%+v\n[]float64 decodes\n%+v", b, got, want)
		}
		for i := range got.Models {
			if !sameBits(got.Models[i].Data, want.Models[i].Data) {
				t.Fatalf("%q: model %d data %v, want %v", b, i, got.Models[i].Data, want.Models[i].Data)
			}
		}
		for i := range got.Streams {
			if !sameBits(got.Streams[i].Data, want.Streams[i].Data) {
				t.Fatalf("%q: stream %d data %v, want %v", b, i, got.Streams[i].Data, want.Streams[i].Data)
			}
		}
	})
}

// BenchmarkLoadRegistry loads the d32 serving deployment's state file:
// the k=1000, d=32 model and its stream checkpoint, about 1.3 MB of
// JSON.
func BenchmarkLoadRegistry(b *testing.B) {
	const k, d = 1000, 32
	rng := rand.New(rand.NewSource(1))
	c := matrix.NewDense(k, d)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	r := NewRegistry(1)
	if _, err := r.Publish("d32", c); err != nil {
		b.Fatal(err)
	}
	cp := StreamCheckpoint{Model: "d32", Centroids: c, Counts: make([]int64, k), Seen: 1 << 20, Published: 1}
	path := filepath.Join(b.TempDir(), "state.json")
	if err := SaveState(r, []StreamCheckpoint{cp}, path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadRegistry(path, 1); err != nil {
			b.Fatal(err)
		}
	}
}
