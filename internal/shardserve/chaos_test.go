package shardserve

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knor/internal/blas"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// chaosSeed replays a failing chaos run exactly:
//
//	go test ./internal/shardserve -run Chaos -chaos-seed 42
var chaosSeed = flag.Int64("chaos-seed", 1, "seed for the chaos kill schedule, centroids and traffic")

// TestChaosSingleKillParity is the headline acceptance check: with
// R=2 and at most one machine down at a time, a seeded kill schedule
// running under live QueryStream traffic produces ZERO client-visible
// errors and ZERO rows that differ from the single-node oracle — at
// both precisions — and the fault phase actually exercised failover.
func TestChaosSingleKillParity(t *testing.T) {
	for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
		t.Run(p.String(), func(t *testing.T) {
			stats, err := RunChaos(ChaosConfig{
				Machines: 3, Replicas: 2, MaxDead: 1,
				Precision: p, Seed: *chaosSeed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Kills == 0 {
				t.Fatal("kill schedule never fired")
			}
			if stats.Failovers == 0 {
				t.Fatal("no failovers: the kills never landed on a preferred replica under load")
			}
			if stats.Errors != 0 {
				t.Errorf("%d client-visible errors with one machine down and R=2 (seed %d)", stats.Errors, *chaosSeed)
			}
			if stats.Wrong != 0 {
				t.Errorf("%d rows differ from the oracle (seed %d)", stats.Wrong, *chaosSeed)
			}
			if stats.FinalErrors != 0 || stats.FinalWrong != 0 {
				t.Errorf("post-recovery: %d errors, %d wrong rows (seed %d)",
					stats.FinalErrors, stats.FinalWrong, *chaosSeed)
			}
			if stats.DegradedRounds == 0 {
				t.Error("no round ever saw a degraded shard group: the schedule was too gentle to prove anything")
			}
			if stats.UnavailableRounds != 0 {
				t.Errorf("%d rounds saw an unavailable group; MaxDead=1 under R=2 must never silence one", stats.UnavailableRounds)
			}
		})
	}
}

// TestChaosKillEachMachine pins the "ANY single machine" half of the
// acceptance wording: for every machine in turn, kill exactly it under
// load and require bit-exactness, then revive and require it again.
func TestChaosKillEachMachine(t *testing.T) {
	for m := 0; m < 3; m++ {
		t.Run(fmt.Sprintf("machine%d", m), func(t *testing.T) {
			cents, queries := parityCase(11, 6, 40, *chaosSeed+int64(m))
			oreg := serve.NewRegistry(1)
			if _, err := oreg.Publish("m", cents); err != nil {
				t.Fatal(err)
			}
			oracle := serve.NewBatcherOf[float64](oreg, serve.BatcherOptions{})
			defer oracle.Close()
			sr := NewShardRegistryWith(Options{Machines: 3, Replicas: 2})
			if _, err := sr.Publish("m", cents); err != nil {
				t.Fatal(err)
			}
			asn := NewAssignerOf[float64](sr, serve.BatcherOptions{})
			defer asn.Close()

			want, err := oracle.AssignBatch("m", queries)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				got, err := asn.AssignBatch("m", queries)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if n := diffAssign(got, want); n != 0 {
					t.Fatalf("%s: %d rows differ from oracle", when, n)
				}
			}
			check("all live")
			sr.Kill(m)
			check("machine killed")
			sr.Revive(m)
			check("machine revived")
		})
	}
}

// TestChaosSelfHealing drives the full healing loop: topology-attached
// registry, sequential kills down to MaxDead=3 of 5 machines (live
// count never below R), settle after each transition. Healing
// re-spreads every group onto live machines from the canonical copies,
// so traffic stays error-free and bit-exact throughout.
func TestChaosSelfHealing(t *testing.T) {
	stats, err := RunChaos(ChaosConfig{
		Machines: 5, Replicas: 2, MaxDead: 3,
		Heal: true, Settle: true,
		KillEvery: 2, DeadFor: 5, Rounds: 16,
		Precision: kmeans.Precision64, Seed: *chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kills < 3 {
		t.Fatalf("only %d kills; schedule meant to overlap deaths", stats.Kills)
	}
	if stats.Errors != 0 {
		t.Errorf("%d errors despite healing keeping every group replicated (seed %d)", stats.Errors, *chaosSeed)
	}
	if stats.Wrong != 0 {
		t.Errorf("%d rows differ from the oracle (seed %d)", stats.Wrong, *chaosSeed)
	}
	if stats.FinalErrors != 0 || stats.FinalWrong != 0 {
		t.Errorf("post-recovery: %d errors, %d wrong rows", stats.FinalErrors, stats.FinalWrong)
	}
	if stats.UnavailableRounds != 0 {
		t.Errorf("%d rounds saw an unavailable group; settle must heal before traffic", stats.UnavailableRounds)
	}
}

// TestChaosUnavailableConfined kills a whole shard group (R=1, no
// healing) and checks the failure contract: the dead group's model
// errors with ErrShardUnavailable naming its centroid range, a model
// whose shards all sit on live machines keeps answering bit-exactly,
// and reviving the machine restores exactness for everyone.
func TestChaosUnavailableConfined(t *testing.T) {
	centsA, queriesA := parityCase(6, 5, 24, *chaosSeed)
	centsB, queriesB := parityCase(2, 5, 24, *chaosSeed+1)

	sr := NewShardRegistryWith(Options{Machines: 3, Replicas: 1})
	for name, c := range map[string]*matrix.Dense{"a": centsA, "b": centsB} {
		if _, err := sr.Publish(name, c); err != nil {
			t.Fatal(err)
		}
	}
	asn := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer asn.Close()

	oracle := func(cents, queries *matrix.Dense) []serve.Assignment {
		t.Helper()
		reg := serve.NewRegistry(1)
		if _, err := reg.Publish("m", cents); err != nil {
			t.Fatal(err)
		}
		b := serve.NewBatcherOf[float64](reg, serve.BatcherOptions{})
		defer b.Close()
		want, err := b.AssignBatch("m", queries)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	wantA := oracle(centsA, queriesA)
	wantB := oracle(centsB, queriesB)

	// k=6 over 3 machines splits [0,2) [2,4) [4,6); machine 2 holds
	// the last group of "a" and nothing of "b" (k=2 occupies machines
	// 0 and 1 only).
	sr.Kill(2)
	if _, err := asn.AssignBatch("a", queriesA); err == nil {
		t.Fatal("model a answered with its shard group dead")
	} else {
		if !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("error %v, want ErrShardUnavailable", err)
		}
		if !strings.Contains(err.Error(), "[4,6)") {
			t.Fatalf("error %q does not name the dead centroid range [4,6)", err)
		}
	}
	if deg, unav := sr.Health(); len(unav) != 1 || unav[0].Model != "a" || unav[0].Shard != 2 {
		t.Fatalf("Health: degraded=%v unavailable=%v, want exactly a/2 unavailable", deg, unav)
	}
	gotB, err := asn.AssignBatch("b", queriesB)
	if err != nil {
		t.Fatalf("model b (all shards live) errored: %v", err)
	}
	if n := diffAssign(gotB, wantB); n != 0 {
		t.Fatalf("model b: %d rows differ while an unrelated group is dead", n)
	}

	sr.Revive(2)
	gotA, err := asn.AssignBatch("a", queriesA)
	if err != nil {
		t.Fatalf("model a after revival: %v", err)
	}
	if n := diffAssign(gotA, wantA); n != 0 {
		t.Fatalf("model a after revival: %d rows differ", n)
	}
}

// TestChaosPublishRaceFailover races three writers at once under
// -race: a republisher alternating k (rebalances), a killer cycling
// machines through dead/alive (failovers + healing rebalances), and a
// reader hammering AssignBatch. With R=2 and one machine down at a
// time every group keeps a live replica, so no call may error and no
// answer may carry an out-of-range index.
func TestChaosPublishRaceFailover(t *testing.T) {
	sr := NewShardRegistryWith(Options{Machines: 4, Replicas: 2})
	if _, err := sr.Publish("m", seqCentroids(8, 4, 0)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer a.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 5
			if i%2 == 0 {
				k = 8
			}
			if _, err := sr.Publish("m", seqCentroids(k, 4, float64(i))); err != nil {
				t.Errorf("republish %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for m := 0; ; m = (m + 1) % 4 {
			select {
			case <-stop:
				return
			default:
			}
			sr.Kill(m)
			time.Sleep(500 * time.Microsecond)
			sr.Revive(m)
		}
	}()

	queries := matrix.NewDense(16, 4)
	for i := range queries.Data {
		queries.Data[i] = float64(i % 7)
	}
	for r := 0; r < 200; r++ {
		as, err := a.AssignBatch("m", queries)
		if err != nil {
			t.Fatalf("assign round %d: %v", r, err)
		}
		for i, an := range as {
			if an.Cluster < 0 || an.Cluster >= 8 {
				t.Fatalf("round %d row %d: cluster %d out of range", r, i, an.Cluster)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// journalHook is an io.Writer that hands every line the journal
// mirrors to fn.
type journalHook func(line string)

func (h journalHook) Write(p []byte) (int, error) {
	h(string(p))
	return len(p), nil
}

// TestFailoverRetriesRevivedReplica replays the interleaving behind
// TestChaosPublishRaceFailover's flakes deterministically: the walk
// skips group 0's preferred replica as down, and before it checks the
// backup, the preferred replica comes back and the backup dies. The
// group never lost both replicas at once, so it must still answer. The
// walk journals its failover to the backup just before reading the
// backup's kill switch, and the journal mirror runs on the walking
// goroutine, so a mirror hook flips both switches exactly in that gap.
func TestFailoverRetriesRevivedReplica(t *testing.T) {
	sr := NewShardRegistryWith(Options{Machines: 2, Replicas: 2})
	if _, err := sr.Publish("m", seqCentroids(6, 4, 0)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer a.Close()
	queries := matrix.NewDense(8, 4)
	for i := range queries.Data {
		queries.Data[i] = float64(i % 5)
	}
	want, err := a.AssignBatch("m", queries)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := sr.GetPlan("m")
	if len(plan.Replicas[0]) != 2 {
		t.Fatalf("group 0 replicas %v, want 2", plan.Replicas[0])
	}
	pref, backup := plan.Replicas[0][0], plan.Replicas[0][1]

	var fired atomic.Bool
	target := fmt.Sprintf("shard=0 to_machine=%d", backup)
	telemetry.DefaultJournal.SetMirror(journalHook(func(line string) {
		if strings.Contains(line, ": failover ") && strings.Contains(line, target) && fired.CompareAndSwap(false, true) {
			sr.Revive(pref)
			sr.Kill(backup)
		}
	}))
	defer telemetry.DefaultJournal.SetMirror(nil)
	sr.Kill(pref)
	got, err := a.AssignBatch("m", queries)
	if !fired.Load() {
		t.Fatal("the walk never failed over to group 0's backup")
	}
	if err != nil {
		t.Fatalf("group 0 always had a live replica, yet: %v", err)
	}
	if n := diffAssign(got, want); n != 0 {
		t.Fatalf("%d rows differ from the all-up answer", n)
	}
}

// TestChaosDeterministicReplay runs the same seed twice and requires
// the executed schedule and every observed count to match: a failing
// chaos run must be replayable from its seed alone.
func TestChaosDeterministicReplay(t *testing.T) {
	cfg := ChaosConfig{
		Machines: 3, Replicas: 2, MaxDead: 1,
		Rounds: 10, PublishEvery: 4,
		Precision: kmeans.Precision64, Seed: *chaosSeed,
	}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("schedules diverge: %v vs %v", a.Events, b.Events)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if a.Kills != b.Kills || a.Revives != b.Revives || a.Rounds != b.Rounds ||
		a.Rows != b.Rows || a.Errors != b.Errors || a.Wrong != b.Wrong ||
		a.Versions != b.Versions {
		t.Fatalf("observations diverge:\n%+v\n%+v", a, b)
	}
}

// runChaosSmokeOf gives the Makefile's chaos-smoke target one compact
// entry point per precision (go test -run ChaosSmoke).
func runChaosSmokeOf[T blas.Float](t *testing.T, p kmeans.Precision) {
	t.Helper()
	stats, err := RunChaos(ChaosConfig{
		Machines: 4, Replicas: 2, MaxDead: 1,
		Rounds: 12, Precision: p, Seed: *chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Wrong != 0 || stats.FinalErrors != 0 || stats.FinalWrong != 0 {
		t.Fatalf("smoke: errors=%d wrong=%d finalErrors=%d finalWrong=%d (seed %d)",
			stats.Errors, stats.Wrong, stats.FinalErrors, stats.FinalWrong, *chaosSeed)
	}
	t.Logf("chaos smoke %s: %d rounds, %d rows, %d kills, %d failovers in %v",
		p, stats.Rounds, stats.Rows, stats.Kills, stats.Failovers, stats.Elapsed)
}

func TestChaosSmoke(t *testing.T) {
	runChaosSmokeOf[float64](t, kmeans.Precision64)
	runChaosSmokeOf[float32](t, kmeans.Precision32)
}

// TestChaosSpreadBytesHalvedAtFloat32 pins the wire-format win: the
// same seeded schedule (same kills, same heals, same republishes) at
// float32 moves half the shard payload bytes of the float64 run,
// because publishes and healing re-spreads carry 4-byte elements end
// to end. The ratio window [1.9, 2.1] allows nothing but the element
// width to differ.
func TestChaosSpreadBytesHalvedAtFloat32(t *testing.T) {
	run := func(p kmeans.Precision) ChaosStats {
		t.Helper()
		stats, err := RunChaos(ChaosConfig{
			Machines: 5, Replicas: 2, MaxDead: 2,
			Heal: true, Settle: true,
			KillEvery: 2, DeadFor: 3, Rounds: 14, PublishEvery: 4,
			Precision: p, Seed: *chaosSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Wrong != 0 || stats.FinalWrong != 0 {
			t.Fatalf("%s: wrong=%d finalWrong=%d (seed %d)", p, stats.Wrong, stats.FinalWrong, *chaosSeed)
		}
		if stats.SpreadBytes == 0 {
			t.Fatalf("%s: no spread bytes counted despite publishes and healing", p)
		}
		return stats
	}
	s64 := run(kmeans.Precision64)
	s32 := run(kmeans.Precision32)
	if len(s64.Events) != len(s32.Events) {
		t.Fatalf("schedules diverge between precisions: %d vs %d events", len(s64.Events), len(s32.Events))
	}
	ratio := float64(s64.SpreadBytes) / float64(s32.SpreadBytes)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("spread bytes f64/f32 = %d/%d = %.3f, want ~2.0 (4-byte wire payloads)",
			s64.SpreadBytes, s32.SpreadBytes, ratio)
	}
	t.Logf("spread bytes: f64=%d f32=%d ratio=%.3f", s64.SpreadBytes, s32.SpreadBytes, ratio)
}

// TestChaosQuantizedParity serves the sharded path through the int8
// quantized scan + exact re-rank while the oracle stays exact, under
// kills, failover and republishes: every answered row must still be
// bit-identical to the exact single-node oracle.
func TestChaosQuantizedParity(t *testing.T) {
	stats, err := RunChaos(ChaosConfig{
		Machines: 3, Replicas: 2, MaxDead: 1,
		Rounds: 14, PublishEvery: 5,
		Precision: kmeans.Precision32, Quantize: "int8",
		Seed: *chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kills == 0 {
		t.Fatal("kill schedule never fired")
	}
	if stats.Errors != 0 {
		t.Errorf("%d client-visible errors (seed %d)", stats.Errors, *chaosSeed)
	}
	if stats.Wrong != 0 {
		t.Errorf("%d quantized rows differ from the exact oracle (seed %d)", stats.Wrong, *chaosSeed)
	}
	if stats.FinalErrors != 0 || stats.FinalWrong != 0 {
		t.Errorf("post-recovery: %d errors, %d wrong rows (seed %d)",
			stats.FinalErrors, stats.FinalWrong, *chaosSeed)
	}
}
