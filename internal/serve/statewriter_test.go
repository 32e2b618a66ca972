package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"knor/internal/matrix"
)

// marshalState is the state file as json.Marshal writes it for the
// schema LoadState decodes: the bytes writeState must stream.
func marshalState(models []*Model, streams []StreamCheckpoint) ([]byte, error) {
	var pf persistedRegistry
	for _, m := range models {
		pf.Models = append(pf.Models, persistedModel{
			Name: m.Name, Version: m.Version, Node: m.Node,
			Rows: m.K(), Cols: m.Dims(), Data: m.Centroids.Data,
		})
	}
	for _, cp := range streams {
		if cp.Centroids == nil {
			continue
		}
		pf.Streams = append(pf.Streams, persistedStream{
			Model: cp.Model, Seen: cp.Seen, Published: cp.Published,
			Counts: cp.Counts,
			Rows:   cp.Centroids.Rows(), Cols: cp.Centroids.Cols(),
			Data: cp.Centroids.Data,
		})
	}
	return json.Marshal(&pf)
}

func floatBits(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzStateWriter holds the streamed state file to json.Marshal's
// bytes for any model and stream names and any float bits. shape picks
// the centroid width and which of the schema's omitempty and null
// cases the state takes. A state holding NaN or ±Inf must fail to save
// and leave the previous file in place.
func FuzzStateWriter(f *testing.F) {
	edges := floatBits(1.5, math.Copysign(0, -1), 0, 5e-324, -2.5e-310, math.SmallestNonzeroFloat64,
		1e-6, math.Nextafter(1e-6, 0), -1e-7, 1e21, math.Nextafter(1e21, 0), -1e21, math.MaxFloat64,
		123456789, 0.1, 1e20, 1e-5)
	f.Add("m", "m", edges, int64(7), uint8(0))
	f.Add("<a&b>  ", "\x00\x1f\"\\\xff\t", edges, int64(-3), uint8(0x1f))
	f.Add("d32", "d32", floatBits(0.25, -0.5, 3, 4), int64(1)<<40, uint8(0x2a))
	f.Add("b", "a", floatBits(2, 1e-300), int64(2), uint8(0x24))
	f.Add("nan", "s", floatBits(1, math.NaN()), int64(0), uint8(1))
	f.Add("inf", "s", floatBits(math.Inf(1), 2), int64(0), uint8(2))
	f.Add("s", "ninf", floatBits(1, 2), int64(0), uint8(0x41))
	f.Fuzz(func(t *testing.T, model, stream string, bits []byte, seen int64, shape uint8) {
		vals := make([]float64, len(bits)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits[8*i:]))
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		cols := 1 + int(shape%4)
		if cols > len(vals) {
			cols = len(vals)
		}
		rows := len(vals) / cols
		cents := &matrix.Dense{RowsN: rows, ColsN: cols, Data: vals[:rows*cols]}
		// The checkpoint holds the same values reversed, so a
		// non-finite value sits in the model, the stream or both.
		unpub := cents.Clone()
		for i, j := 0, len(unpub.Data)-1; i < j; i, j = i+1, j-1 {
			unpub.Data[i], unpub.Data[j] = unpub.Data[j], unpub.Data[i]
		}
		if shape&0x40 != 0 {
			unpub.Data[0] = math.Inf(-1)
		}
		counts := make([]int64, rows)
		for i := range counts {
			counts[i] = seen - int64(i)
		}
		cp := StreamCheckpoint{Model: stream, Centroids: unpub, Counts: counts, Seen: seen, Published: int(shape)}
		if shape&0x04 != 0 {
			cp.Counts = nil
		}
		if shape&0x08 != 0 {
			cp.Centroids = &matrix.Dense{RowsN: rows, ColsN: 0}
			cp.Counts = []int64{}
		}
		streams := []StreamCheckpoint{{Model: "no centroids"}, cp}
		if shape&0x10 != 0 {
			streams = streams[:1]
		}
		models := []*Model{{Name: model, Version: int(seen), Node: int(shape >> 5), Centroids: cents}}
		if shape&0x20 != 0 {
			models = append(models, &Model{Name: stream, Version: 1, Centroids: &matrix.Dense{RowsN: 0, ColsN: cols}})
		}
		if shape&0x80 != 0 {
			models = nil
		}

		want, werr := marshalState(models, streams)
		var got bytes.Buffer
		gerr := writeState(&got, models, streams)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("json.Marshal error %v, writeState error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("writeState wrote\n%s\njson.Marshal writes\n%s", got.Bytes(), want)
		}

		// The same state saved through a registry over an older file.
		if model == "" {
			return
		}
		r := NewRegistry(1)
		if _, err := r.Publish(model, cents); err != nil {
			t.Fatal(err)
		}
		want, werr = marshalState(r.List(), streams)
		path := filepath.Join(t.TempDir(), "state.json")
		old := []byte(`{"models":null}`)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		err := SaveState(r, streams, path)
		file, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		switch {
		case werr != nil && err == nil:
			t.Fatalf("saved a state json.Marshal refuses (%v)", werr)
		case werr != nil && !bytes.Equal(file, old):
			t.Fatalf("a failed save replaced the previous file with\n%s", file)
		case werr == nil && err != nil:
			t.Fatalf("save failed: %v", err)
		case werr == nil && !bytes.Equal(file, want):
			t.Fatalf("saved\n%s\njson.Marshal writes\n%s", file, want)
		}
	})
}

// TestSaveStateAllocs gates the bytes one save of the d32 serving model
// (k=1000, d=32) and its stream checkpoint allocates: the file is
// 1.3 MB of JSON, and the save holds one chunk of it at a time.
func TestSaveStateAllocs(t *testing.T) {
	const k, d, limit = 1000, 32, 1 << 20
	r := NewRegistry(1)
	c := testCentroids(k, d, 1.0/3)
	if _, err := r.Publish("d32", c); err != nil {
		t.Fatal(err)
	}
	eng, err := ResumeStreamEngine(StreamCheckpoint{Model: "d32", Centroids: c, Counts: make([]int64, k), Published: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cps := []StreamCheckpoint{eng.Checkpoint()}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := SaveState(r, cps, path); err != nil {
		t.Fatal(err)
	}
	// Two collections empty sync.Pools such as encoding/json's
	// encoder buffers, as a server's saves find them after a while.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := SaveState(r, cps, path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("SaveState allocated %d bytes", got)
	if got >= limit {
		t.Fatalf("SaveState allocated %d bytes, want < %d", got, limit)
	}
	if st, err := os.Stat(path); err != nil || st.Size() < 1<<20 {
		t.Fatalf("state file %v, %v: want over 1 MB of JSON", st, err)
	}
}
