package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"knor/internal/matrix"
)

// Snapshot persistence: the registry's latest snapshot per model,
// serialised to one JSON file so a restarted server reloads its models
// with their version numbers intact (knorserve -state). Only the
// latest version of each model is saved — history and pins are
// serving-time conveniences, not durable state — and writes go through
// a temp file + rename so a crash mid-save never corrupts the previous
// state file.
//
// Centroids are saved at float64, the one width a Model stores. A file
// an older binary wrote for a float32 publish (elem 4, base64 data32,
// no data) fails to load with an error naming the model.

// persistedModel is one model's latest snapshot on disk.
type persistedModel struct {
	Name    string    `json:"name"`
	Version int       `json:"version"`
	Node    int       `json:"node"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Data    []float64 `json:"data,omitempty"` // row-major centroids, rows×cols
}

// persistedStream is one model's stream-updater checkpoint on disk:
// the unpublished mini-batch state (per-centroid fold counts drive the
// learning rate, so persisting them means a resumed engine folds the
// next batch with exactly the step sizes an uninterrupted one would).
type persistedStream struct {
	Model     string    `json:"model"`
	Seen      int64     `json:"seen"`
	Published int       `json:"published"`
	Counts    []int64   `json:"counts"`
	Rows      int       `json:"rows"`
	Cols      int       `json:"cols"`
	Data      []float64 `json:"data"` // unpublished centroids, row-major
}

// persistedRegistry is the state file's schema. Streams is absent in
// files written before stream checkpoints were persisted; those load
// with no checkpoints (the server falls back to seeding updaters from
// the published centroids).
type persistedRegistry struct {
	Models  []persistedModel  `json:"models"`
	Streams []persistedStream `json:"streams,omitempty"`
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
func SaveState(r *Registry, streams []StreamCheckpoint, path string) error {
	var pf persistedRegistry
	for _, m := range r.List() {
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
	buf, err := json.Marshal(&pf)
	if err != nil {
		return fmt.Errorf("serve: marshal registry state: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".registry-*.json")
	if err != nil {
		return fmt.Errorf("serve: save registry state: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: save registry state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: save registry state: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	telSnapshotSaves.Inc()
	return nil
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
		if pm.Rows <= 0 || pm.Cols <= 0 {
			return nil, nil, fmt.Errorf("serve: registry state %s: model %q claims %dx%d",
				path, pm.Name, pm.Rows, pm.Cols)
		}
		if pm.Rows*pm.Cols != len(pm.Data) {
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
		if ps.Rows <= 0 || ps.Cols <= 0 || ps.Rows*ps.Cols != len(ps.Data) || ps.Rows != len(ps.Counts) {
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
