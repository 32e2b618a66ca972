package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/workload"
)

// The gate tests prove a broken program cannot post numbers: each
// feeds the checker a result or answer with one deliberate defect.

func trainPair(t *testing.T) (got, oracle *kmeans.Result) {
	t.Helper()
	data := workload.Generate(workload.Spec{Kind: workload.NaturalClusters, N: 2000, D: 4,
		Clusters: 8, Spread: mixSpread, Seed: 3})
	cfg := kmeans.Config{K: 8, MaxIters: 10, Init: kmeans.InitForgy, Prune: kmeans.PruneMTI, Threads: 2, Seed: 3}
	oracle, err := kmeans.RunSerial(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = kmeans.Run(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTrain(got, oracle); err != nil {
		t.Fatalf("a correct knori result fails the gate: %v", err)
	}
	return got, oracle
}

func TestTrainGateRejectsPerturbedCentroid(t *testing.T) {
	got, oracle := trainPair(t)
	got.Centroids = got.Centroids.Clone()
	got.Centroids.Data[5] += 1e-6
	if err := checkTrain(got, oracle); err == nil || !strings.Contains(err.Error(), "centroids") {
		t.Fatalf("perturbed centroid: err = %v", err)
	}
}

func TestTrainGateRejectsChangedAssignment(t *testing.T) {
	got, oracle := trainPair(t)
	got.Assign = append([]int32(nil), got.Assign...)
	got.Assign[17] = (got.Assign[17] + 1) % 8
	if err := checkTrain(got, oracle); err == nil || !strings.Contains(err.Error(), "row 17") {
		t.Fatalf("changed assignment: err = %v", err)
	}
}

func TestTrainGateRejectsIterationCount(t *testing.T) {
	got, oracle := trainPair(t)
	got.Iters++
	if err := checkTrain(got, oracle); err == nil {
		t.Fatal("an extra iteration passed the gate")
	}
}

// servedAnswers answers two queries the way a correct server would:
// the first with version 1, the second with version 2.
func servedAnswers(t *testing.T) (map[int]*matrix.Dense, []answered) {
	t.Helper()
	sp := workload.Spec{Kind: workload.NaturalClusters, N: 500, D: 6, Clusters: 10, Spread: mixSpread, Seed: 9}
	v1 := workload.TrueCentres(sp)
	v2 := v1.Clone()
	for i := range v2.Data {
		v2.Data[i] += 0.01 * float64(i%7)
	}
	versions := map[int]*matrix.Dense{1: v1, 2: v2}
	reg := serve.NewRegistry(1)
	var answers []answered
	qs := workload.NewQueryStream(sp, 5)
	for v := 1; v <= 2; v++ {
		if _, err := reg.Publish("m", versions[v]); err != nil {
			t.Fatal(err)
		}
		a := serve.NewAssigner(reg, serve.BatcherOptions{}, kmeans.Precision64)
		q := qs.Next(16)
		as, err := a.AssignRows("m", q)
		a.Close()
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answered{rows: q, reply: replyOf(as)})
	}
	if err := checkAnswers(versions, answers); err != nil {
		t.Fatalf("correct answers fail the gate: %v", err)
	}
	return versions, answers
}

func replyOf(as []serve.Assignment) []byte {
	r := assignReply{Version: as[0].Version}
	for _, a := range as {
		r.Clusters = append(r.Clusters, a.Cluster)
		r.SqDists = append(r.SqDists, a.SqDist)
	}
	b, _ := json.Marshal(r)
	return b
}

func edit(t *testing.T, a answered, fn func(*assignReply)) answered {
	t.Helper()
	var r assignReply
	if err := json.Unmarshal(a.reply, &r); err != nil {
		t.Fatal(err)
	}
	fn(&r)
	b, _ := json.Marshal(r)
	return answered{rows: a.rows, reply: b}
}

func TestServeGateRejectsFlippedCluster(t *testing.T) {
	versions, answers := servedAnswers(t)
	answers[1] = edit(t, answers[1], func(r *assignReply) { r.Clusters[3] = (r.Clusters[3] + 1) % 10 })
	if err := checkAnswers(versions, answers); err == nil || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("flipped cluster id: err = %v", err)
	}
}

func TestServeGateRejectsChangedSqDistBit(t *testing.T) {
	versions, answers := servedAnswers(t)
	answers[0] = edit(t, answers[0], func(r *assignReply) {
		r.SqDists[2] = math.Float64frombits(math.Float64bits(r.SqDists[2]) ^ 1)
	})
	if err := checkAnswers(versions, answers); err == nil || !strings.Contains(err.Error(), "sqdist") {
		t.Fatalf("changed sqdist bit: err = %v", err)
	}
}

func TestServeGateRejectsWrongVersion(t *testing.T) {
	versions, answers := servedAnswers(t)
	// Answered against version 1's centroids but labelled version 2.
	answers[0] = edit(t, answers[0], func(r *assignReply) { r.Version = 2 })
	if err := checkAnswers(versions, answers); err == nil {
		t.Fatal("an answer checked against the wrong version passed the gate")
	}
	answers[0] = edit(t, answers[0], func(r *assignReply) { r.Version = 3 })
	if err := checkAnswers(versions, answers); err == nil || !strings.Contains(err.Error(), "never published") {
		t.Fatalf("unpublished version: err = %v", err)
	}
}
