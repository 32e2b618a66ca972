package serve

import (
	"math/rand"
	"testing"

	"knor/internal/matrix"
	"knor/internal/telemetry"
)

// benchBatcher builds a k=100 d=16 model behind a batcher tuned so the
// benchmark goroutine's requests flush immediately — the hot path under
// test is AssignBatch end to end, the loadtest shape per request.
func benchBatcher(b *testing.B) (*Batcher, *matrix.Dense) {
	b.Helper()
	const k, d = 100, 16
	rng := rand.New(rand.NewSource(1))
	cents := matrix.NewDense(k, d)
	for i := range cents.Data {
		cents.Data[i] = rng.NormFloat64()
	}
	reg := NewRegistry(1)
	if _, err := reg.Publish("bench", cents); err != nil {
		b.Fatal(err)
	}
	bat := NewBatcher(reg, BatcherOptions{})
	b.Cleanup(bat.Close)
	rows := matrix.NewDense(4, d)
	for i := range rows.Data {
		rows.Data[i] = rng.NormFloat64()
	}
	return bat, rows
}

// BenchmarkAssignTelemetryEnabled vs ...Disabled measure the
// instrumentation's hot-path cost; EXPERIMENTS.md records the <2%
// acceptance comparison from these plus the HTTP loadtest.
func BenchmarkAssignTelemetryEnabled(b *testing.B) {
	telemetry.SetEnabled(true)
	bat, rows := benchBatcher(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.AssignBatch("bench", rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignTelemetryDisabled(b *testing.B) {
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	bat, rows := benchBatcher(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.AssignBatch("bench", rows); err != nil {
			b.Fatal(err)
		}
	}
}
