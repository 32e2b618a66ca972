package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"knor/internal/jsonfloat"
	"knor/internal/matrix"
)

// Snapshot persistence: the registry's latest snapshot per model,
// serialised to one JSON file so a restarted server reloads its models
// with their version numbers intact (knorserve -state). Only the
// latest version of each model is saved — history and pins are
// serving-time conveniences, not durable state — and writes go through
// an fsynced temp file + rename so a crash mid-save never corrupts the
// previous state file.
//
// Centroids are saved at float64, the one width a Model stores. A file
// an older binary wrote for a float32 publish (elem 4, base64 data32,
// no data) fails to load with an error naming the model.

// The persisted* types are the file's schema: LoadState decodes them
// with encoding/json, its float arrays through jsonfloat.Scan (floats),
// and SaveState streams the same bytes json.Marshal would write for
// them (writeState).

// persistedModel is one model's latest snapshot on disk.
type persistedModel struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Node    int    `json:"node"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Data    floats `json:"data,omitempty"` // row-major centroids, rows×cols
}

// persistedStream is one model's stream-updater checkpoint on disk:
// the unpublished mini-batch state (per-centroid fold counts drive the
// learning rate, so persisting them means a resumed engine folds the
// next batch with exactly the step sizes an uninterrupted one would).
type persistedStream struct {
	Model     string  `json:"model"`
	Seen      int64   `json:"seen"`
	Published int     `json:"published"`
	Counts    []int64 `json:"counts"`
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Data      floats  `json:"data"` // unpublished centroids, row-major
}

// persistedRegistry is the state file's schema. Streams is absent in
// files written before stream checkpoints were persisted; those load
// with no checkpoints (the server falls back to seeding updaters from
// the published centroids).
type persistedRegistry struct {
	Models  []persistedModel  `json:"models"`
	Streams []persistedStream `json:"streams,omitempty"`
}

// floats decodes a JSON array of numbers as encoding/json decodes a
// []float64, reading each number once through jsonfloat.Scan into a
// slice allocated at its final length. As for a []float64, null sets
// nil and [] an empty slice, and a null element keeps what the slice's
// array held at its index: 0 in a fresh slice, or an earlier value of
// the same member when the member repeats.
type floats []float64

// UnmarshalJSON decodes b, one whole JSON value as encoding/json hands
// it over.
func (f *floats) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = nil
		return nil
	}
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return fmt.Errorf("want an array of numbers, found %.20q", b)
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		*f = floats{}
		return nil
	}
	// Elements are numbers and nulls, so every comma separates two;
	// a body with another kind of element fails below.
	n := bytes.Count(b, []byte{','}) + 1
	s := *f
	if cap(s) < n {
		grown := make(floats, n)
		copy(grown, s[:cap(s)])
		s = grown
	}
	s = s[:n]
	for k := 0; k < n; k++ {
		i = skipSpace(b, i)
		if bytes.HasPrefix(b[i:], []byte("null")) {
			i += len("null")
		} else {
			v, end, err := jsonfloat.Scan(b, i)
			if err != nil {
				return err
			}
			s[k], i = v, end
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == ']' {
			*f = s[:k+1]
			return nil
		}
		if i == len(b) || b[i] != ',' {
			break
		}
		i++
	}
	return fmt.Errorf("offset %d: want ',' or ']' in an array of numbers", i)
}

// skipSpace returns the index of the first byte at or after b[i] that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// SaveRegistry writes the latest snapshot of every model to path,
// atomically (temp file + rename).
func SaveRegistry(r *Registry, path string) error {
	return SaveState(r, nil, path)
}

// SaveState writes the latest snapshot of every model plus the given
// stream-updater checkpoints to path, atomically (temp file + rename).
// A server that persists both resumes not just its published models
// but the exact mini-batch state between publishes — folding is
// deterministic, so a restarted updater fed the remaining batches
// lands bit-identically with one that never stopped.
//
// The file is streamed (writeState) and fsynced before the rename, so
// a save holds one small chunk of JSON, not the whole file, and a crash
// leaves either the previous file or the new one complete. A model or
// checkpoint holding NaN or ±Inf fails the save and leaves the previous
// file in place.
func SaveState(r *Registry, streams []StreamCheckpoint, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".registry-*.json")
	if err != nil {
		return fmt.Errorf("serve: save registry state: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = writeState(tmp, r.List(), streams)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: save registry state: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	telSnapshotSaves.Inc()
	return nil
}

// stateChunk is how many bytes of JSON a save gathers before it writes
// them out. The chunk has room for one number past it, so appending a
// value never grows the chunk.
const stateChunk = 32 << 10

// stateWriter appends JSON to one reused chunk and writes the chunk to
// out each time it fills. The first error sticks.
type stateWriter struct {
	out io.Writer
	b   []byte
	err error
}

// writeState writes the state file's JSON for models and the
// checkpoints that carry centroids to out: the bytes json.Marshal
// writes for the persistedRegistry LoadState decodes, field for field,
// with its omitempty and null cases.
func writeState(out io.Writer, models []*Model, streams []StreamCheckpoint) error {
	w := &stateWriter{out: out, b: make([]byte, 0, stateChunk+64)}
	w.raw(`{"models":`)
	if len(models) == 0 {
		w.raw("null")
	}
	for i, m := range models {
		w.raw(sep(i))
		w.str(`{"name":`, m.Name)
		w.num(`,"version":`, int64(m.Version))
		w.num(`,"node":`, int64(m.Node))
		w.num(`,"rows":`, int64(m.K()))
		w.num(`,"cols":`, int64(m.Dims()))
		if len(m.Centroids.Data) > 0 {
			w.floats(`,"data":`, m.Centroids.Data)
		}
		w.raw("}")
		if w.err != nil {
			return fmt.Errorf("model %q: %w", m.Name, w.err)
		}
	}
	if len(models) > 0 {
		w.raw("]")
	}
	n := 0
	for _, cp := range streams {
		if cp.Centroids == nil {
			continue
		}
		if n == 0 {
			w.raw(`,"streams":`)
		}
		w.raw(sep(n))
		n++
		w.str(`{"model":`, cp.Model)
		w.num(`,"seen":`, cp.Seen)
		w.num(`,"published":`, int64(cp.Published))
		w.ints(`,"counts":`, cp.Counts)
		w.num(`,"rows":`, int64(cp.Centroids.Rows()))
		w.num(`,"cols":`, int64(cp.Centroids.Cols()))
		w.floats(`,"data":`, cp.Centroids.Data)
		w.raw("}")
		if w.err != nil {
			return fmt.Errorf("stream %q: %w", cp.Model, w.err)
		}
	}
	if n > 0 {
		w.raw("]")
	}
	w.raw("}")
	w.flush()
	return w.err
}

// sep opens an array before element 0 and separates the others.
func sep(i int) string {
	if i == 0 {
		return "["
	}
	return ","
}

// closing ends an array of n elements; an empty one was never opened.
func closing(n int) string {
	if n == 0 {
		return "[]"
	}
	return "]"
}

func (w *stateWriter) raw(s string) {
	w.b = append(w.b, s...)
	w.spill()
}

// str writes key and then s as encoding/json quotes a string, HTML
// characters escaped.
func (w *stateWriter) str(key, s string) {
	q, _ := json.Marshal(s) // a string always marshals
	w.b = append(append(w.b, key...), q...)
	w.spill()
}

func (w *stateWriter) num(key string, v int64) {
	w.b = strconv.AppendInt(append(w.b, key...), v, 10)
	w.spill()
}

// ints writes key and then v as a JSON array, or null for a nil v.
func (w *stateWriter) ints(key string, v []int64) {
	w.raw(key)
	if v == nil {
		w.raw("null")
		return
	}
	for i, c := range v {
		w.num(sep(i), c)
	}
	w.raw(closing(len(v)))
}

// floats writes key and then v as a JSON array, or null for a nil v.
func (w *stateWriter) floats(key string, v []float64) {
	w.raw(key)
	if v == nil {
		w.raw("null")
		return
	}
	for i, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if w.err == nil {
				w.err = fmt.Errorf("unsupported value: %v", f)
			}
			return
		}
		w.b = jsonfloat.Append(append(w.b, sep(i)...), f)
		w.spill()
	}
	w.raw(closing(len(v)))
}

// spill writes the chunk out once it holds stateChunk bytes.
func (w *stateWriter) spill() {
	if len(w.b) >= stateChunk {
		w.flush()
	}
}

func (w *stateWriter) flush() {
	if w.err == nil && len(w.b) > 0 {
		_, w.err = w.out.Write(w.b)
	}
	w.b = w.b[:0]
}

// LoadRegistry rebuilds a registry from a state file written by
// SaveRegistry: every model comes back at its saved version and node
// pin, so clients observing versions across a restart never see them go
// backwards. Returns (nil, nil) when the file does not exist — a first
// boot, not an error.
func LoadRegistry(path string, nodes int) (*Registry, error) {
	r, _, err := LoadState(path, nodes)
	return r, err
}

// LoadState rebuilds a registry and the stream checkpoints persisted
// alongside it. Returns (nil, nil, nil) when the file does not exist —
// a first boot, not an error. Files written before stream checkpoints
// existed load with no checkpoints.
func LoadState(path string, nodes int) (*Registry, []StreamCheckpoint, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: load registry state: %w", err)
	}
	var pf persistedRegistry
	if err := json.Unmarshal(buf, &pf); err != nil {
		return nil, nil, fmt.Errorf("serve: parse registry state %s: %w", path, err)
	}
	r := NewRegistry(nodes)
	for _, pm := range pf.Models {
		if !shapeHolds(pm.Rows, pm.Cols, len(pm.Data)) {
			return nil, nil, fmt.Errorf("serve: registry state %s: model %q claims %dx%d but has %d values",
				path, pm.Name, pm.Rows, pm.Cols, len(pm.Data))
		}
		c := &matrix.Dense{RowsN: pm.Rows, ColsN: pm.Cols, Data: pm.Data}
		if _, err := r.Restore(pm.Name, pm.Version, pm.Node, c); err != nil {
			return nil, nil, fmt.Errorf("serve: registry state %s: %w", path, err)
		}
	}
	var cps []StreamCheckpoint
	for _, ps := range pf.Streams {
		if !shapeHolds(ps.Rows, ps.Cols, len(ps.Data)) || ps.Rows != len(ps.Counts) {
			return nil, nil, fmt.Errorf("serve: registry state %s: stream %q claims %dx%d with %d values, %d counts",
				path, ps.Model, ps.Rows, ps.Cols, len(ps.Data), len(ps.Counts))
		}
		cps = append(cps, StreamCheckpoint{
			Model:     ps.Model,
			Centroids: &matrix.Dense{RowsN: ps.Rows, ColsN: ps.Cols, Data: ps.Data},
			Counts:    ps.Counts,
			Seen:      ps.Seen,
			Published: ps.Published,
		})
	}
	telSnapshotLoads.Inc()
	return r, cps, nil
}

// shapeHolds reports whether a positive rows×cols shape has exactly n
// values. Dividing before multiplying keeps a hostile 2^32×2^32 claim
// from overflowing to a product that matches.
func shapeHolds(rows, cols, n int) bool {
	return rows > 0 && cols > 0 && rows <= n/cols && rows*cols == n
}
