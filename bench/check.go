package main

import (
	"encoding/json"
	"fmt"
	"math"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
)

// checkTrain holds one engine result to the serial oracle run on the
// same data and config: the same iteration count, identical
// assignments, centroids within 1e-9 and SSE within a relative 1e-9.
// The parallel engines sum in another order than the oracle, so
// centroids and SSE may differ in the last bits, but not more.
func checkTrain(got, oracle *kmeans.Result) error {
	if got.Iters != oracle.Iters {
		return fmt.Errorf("ran %d iterations, oracle %d", got.Iters, oracle.Iters)
	}
	if len(got.Assign) != len(oracle.Assign) {
		return fmt.Errorf("assigned %d rows, oracle %d", len(got.Assign), len(oracle.Assign))
	}
	for i, a := range got.Assign {
		if a != oracle.Assign[i] {
			return fmt.Errorf("row %d assigned to %d, oracle %d", i, a, oracle.Assign[i])
		}
	}
	if !got.Centroids.Equal(oracle.Centroids, 1e-9) {
		return fmt.Errorf("centroids differ from the oracle by more than 1e-9")
	}
	if rel := math.Abs(got.SSE-oracle.SSE) / math.Max(math.Abs(oracle.SSE), math.SmallestNonzeroFloat64); rel > 1e-9 {
		return fmt.Errorf("SSE %.17g, oracle %.17g (relative error %.3g)", got.SSE, oracle.SSE, rel)
	}
	return nil
}

// assignReply is the body of a 200 answer from POST /v1/assign.
type assignReply struct {
	Version  int       `json:"version"`
	Clusters []int32   `json:"clusters"`
	SqDists  []float64 `json:"sqdists"`
}

// answered is one /v1/assign request the benchmark sent and the raw
// body of its 200 reply.
type answered struct {
	rows  *matrix.Dense
	reply []byte
}

// checkAnswers decodes every reply and checks each row's cluster id and
// squared-distance bits against an in-process single-node assigner
// holding the centroids of the version the reply names. versions maps
// every version the server may have answered with to its centroids.
func checkAnswers(versions map[int]*matrix.Dense, answers []answered) error {
	byVersion := map[int][]int{}
	replies := make([]assignReply, len(answers))
	for i, a := range answers {
		if err := json.Unmarshal(a.reply, &replies[i]); err != nil {
			return fmt.Errorf("assign reply %d: %w", i, err)
		}
		r := replies[i]
		if len(r.Clusters) != a.rows.Rows() || len(r.SqDists) != a.rows.Rows() {
			return fmt.Errorf("assign reply %d: %d clusters and %d sqdists for %d rows",
				i, len(r.Clusters), len(r.SqDists), a.rows.Rows())
		}
		if _, ok := versions[r.Version]; !ok {
			return fmt.Errorf("assign reply %d: names version %d, which was never published", i, r.Version)
		}
		byVersion[r.Version] = append(byVersion[r.Version], i)
	}
	for v, idxs := range byVersion {
		want, err := exactAssign(versions[v], v, answers, idxs)
		if err != nil {
			return err
		}
		off := 0
		for _, i := range idxs {
			r := replies[i]
			for j := range r.Clusters {
				w := want[off+j]
				if r.Clusters[j] != w.Cluster {
					return fmt.Errorf("assign reply %d row %d (version %d): cluster %d, exact %d", i, j, v, r.Clusters[j], w.Cluster)
				}
				if math.Float64bits(r.SqDists[j]) != math.Float64bits(w.SqDist) {
					return fmt.Errorf("assign reply %d row %d (version %d): sqdist %v, exact %v", i, j, v, r.SqDists[j], w.SqDist)
				}
			}
			off += len(r.Clusters)
		}
	}
	return nil
}

// exactAssign answers the rows of answers[idxs], in order, with a
// single-node float64 assigner over a registry holding only the given
// version of the model. Rows go in blocks of about oracleBlock, which
// bounds the distance matrix each flush allocates.
func exactAssign(cents *matrix.Dense, version int, answers []answered, idxs []int) ([]serve.Assignment, error) {
	const name, oracleBlock = "oracle", 1024
	reg := serve.NewRegistry(1)
	if _, err := reg.Restore(name, version, 0, cents); err != nil {
		return nil, fmt.Errorf("oracle registry: %w", err)
	}
	a := serve.NewAssigner(reg, serve.BatcherOptions{}, kmeans.Precision64)
	defer a.Close()
	var out []serve.Assignment
	for lo := 0; lo < len(idxs); {
		hi, rows := lo, 0
		for hi < len(idxs) && (hi == lo || rows+answers[idxs[hi]].rows.Rows() <= oracleBlock) {
			rows += answers[idxs[hi]].rows.Rows()
			hi++
		}
		block := matrix.NewDense(rows, cents.Cols())
		off := 0
		for _, i := range idxs[lo:hi] {
			off += copy(block.Data[off:], answers[i].rows.Data)
		}
		as, err := a.AssignRows(name, block)
		if err != nil {
			return nil, fmt.Errorf("oracle assign: %w", err)
		}
		out = append(out, as...)
		lo = hi
	}
	return out, nil
}
