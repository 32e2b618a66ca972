package shardserve

// Chaos harness: drive the replicated fan-out with workload.QueryStream
// traffic while a seeded, deterministic kill schedule takes simulated
// machines down and brings them back, and hold every answer that does
// arrive to the single-node oracle — bit-identical Cluster, SqDist and
// Version, or it counts as Wrong. The harness is the proof behind the
// replication layer: availability may degrade under faults (counted,
// bounded by the tests), correctness may not.
//
// Determinism: the kill schedule, the centroid contents, every query
// row and every republish derive from ChaosConfig.Seed alone, so a
// failing run replays exactly from its seed. Timing (settle waits,
// batcher flushes) is not part of the schedule; no assertion depends
// on it.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"knor/internal/blas"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/topology"
	"knor/internal/workload"
)

// ChaosConfig parameterises one chaos run.
type ChaosConfig struct {
	// Machines and Replicas shape the cluster under test.
	Machines int
	Replicas int
	// Heal attaches a topology so membership transitions re-spread
	// replicas from the canonical copies (the self-healing path).
	// Without it, placements are fixed at publish time and failover
	// alone carries the load.
	Heal bool
	// Settle, with Heal, waits after each transition until every shard
	// group is replicated over the available machines again before
	// sending traffic — separating "healing works" from "failover
	// covers the healing window".
	Settle bool
	// K×D centroids with deliberate duplicate rows (cross-shard ties);
	// query batches get exact-tie rows injected every round.
	K, D int
	// Rounds of BatchRows-row query batches under the kill schedule,
	// then FinalRounds more after every machine is revived (the
	// recovery-restores-exactness check).
	Rounds      int
	BatchRows   int
	FinalRounds int
	// Precision selects the element type of both the oracle's and the
	// sharded path's batchers. Centroids are published as float64 at
	// either precision, as knorserve publishes them, so a float32 run
	// serves lazily built mirrors of float64 shard copies.
	Precision kmeans.Precision
	// Seed drives the kill schedule, centroids, queries, republishes.
	Seed int64
	// KillEvery kills one machine every that-many rounds (0 = never);
	// it stays dead for DeadFor rounds; at most MaxDead machines are
	// down at once (default Replicas-1: enough to exercise failover on
	// every group without silencing one when Heal is off).
	KillEvery int
	DeadFor   int
	MaxDead   int
	// PublishEvery republishes fresh centroids (same K) every that-many
	// rounds (0 = never), racing version skew against failover.
	PublishEvery int
}

// withDefaults fills unset knobs with the standard chaos shape.
func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if cfg.Machines == 0 {
		cfg.Machines = 3
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.K == 0 {
		cfg.K = 12
	}
	if cfg.D == 0 {
		cfg.D = 8
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 18
	}
	if cfg.BatchRows == 0 {
		cfg.BatchRows = 32
	}
	if cfg.FinalRounds == 0 {
		cfg.FinalRounds = 2
	}
	if cfg.KillEvery == 0 {
		cfg.KillEvery = 3
	}
	if cfg.DeadFor == 0 {
		cfg.DeadFor = 4
	}
	if cfg.MaxDead == 0 {
		cfg.MaxDead = cfg.Replicas - 1
		if cfg.MaxDead < 1 {
			cfg.MaxDead = 1
		}
	}
	return cfg
}

// ChaosEvent is one entry of the executed fault schedule.
type ChaosEvent struct {
	Round   int
	Machine int
	Kill    bool // true = killed, false = revived
}

// ChaosStats is what one chaos run observed.
type ChaosStats struct {
	// Rounds and Rows count the traffic sent during the fault phase.
	Rounds int
	Rows   int
	// Errors counts fault-phase batches the fan-out refused (shard
	// group unavailable); Wrong counts rows that ANSWERED but differed
	// from the oracle in any of Cluster, SqDist bits, or Version —
	// the number the whole layer exists to keep at zero.
	Errors int
	Wrong  int
	// Kills/Revives and Events record the executed schedule (Events in
	// order, for replay comparison).
	Kills   int
	Revives int
	Events  []ChaosEvent
	// Failovers is the assigner's count of passes past a preferred
	// replica; Degraded/UnavailableRounds count rounds that started
	// with shard groups in those states.
	Failovers         uint64
	DegradedRounds    int
	UnavailableRounds int
	// FinalErrors/FinalWrong cover the post-recovery rounds, after
	// every machine was revived: both must be zero if recovery truly
	// restores exactness.
	FinalErrors int
	FinalWrong  int
	// Versions is how many versions were published over the run.
	Versions int
	// SpreadBytes is the registry's count of centroid payload bytes
	// copied into machine registries over the run (publishes + healing
	// re-spreads). Shard copies are float64 at either precision, so the
	// same schedule moves the same bytes at both.
	SpreadBytes uint64
	Elapsed     time.Duration
}

// RunChaos executes one seeded chaos run at cfg.Precision.
func RunChaos(cfg ChaosConfig) (ChaosStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Precision == kmeans.Precision32 {
		return runChaosOf[float32](cfg)
	}
	return runChaosOf[float64](cfg)
}

// chaosCentroids draws k×d centroids with duplicate rows (row k-1
// copies row 0; row k/2 copies row 1 when k >= 5), so argmin ties span
// shard boundaries and the lowest-global-index tie-break is exercised
// on every batch.
func chaosCentroids(k, d int, rng *rand.Rand) *matrix.Dense {
	c := matrix.NewDense(k, d)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	if k >= 2 {
		copy(c.Row(k-1), c.Row(0))
	}
	if k >= 5 {
		copy(c.Row(k/2), c.Row(1))
	}
	return c
}

// injectTies overwrites some query rows with exact centroid copies, so
// every batch contains distance-zero ties between duplicated rows.
func injectTies(q, cents *matrix.Dense) {
	k := cents.Rows()
	for i := 0; i < q.Rows(); i++ {
		switch {
		case i%4 == 1 && k >= 2:
			copy(q.Row(i), cents.Row(0))
		case i%4 == 3 && k >= 5:
			copy(q.Row(i), cents.Row(1))
		}
	}
}

// diffAssign counts rows where got differs from the oracle in any
// observable field. SqDist compares by bit pattern: "close" is wrong.
func diffAssign(got, want []serve.Assignment) int {
	if len(got) != len(want) {
		return len(want)
	}
	wrong := 0
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) ||
			got[i].Version != want[i].Version {
			wrong++
		}
	}
	return wrong
}

// settleReplication polls until the healing loop has finished one
// re-spread per membership transition so far and every shard group
// holds at least min(replicas, available) live copies, or the deadline
// passes. Live copies alone are not enough: a revived machine counts
// as live again before its re-spread runs, and that re-spread racing
// the next publish changes how many bytes move.
func settleReplication(sr *ShardRegistry, available, transitions int) error {
	want := sr.Replicas()
	if available < want {
		want = available
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := sr.Rebalances() >= uint64(transitions)
		for _, h := range sr.GroupHealth() {
			if h.Live < want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shardserve: healing did not settle to %d live replicas per group", want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func runChaosOf[T blas.Float](cfg ChaosConfig) (ChaosStats, error) {
	var stats ChaosStats
	rng := rand.New(rand.NewSource(cfg.Seed))
	cents := chaosCentroids(cfg.K, cfg.D, rng)

	opts := Options{Machines: cfg.Machines, Replicas: cfg.Replicas}
	if cfg.Heal {
		topo := topology.New(topology.Config{Machines: cfg.Machines})
		defer topo.Close()
		opts.Topology = topo
	}
	sr := NewShardRegistryWith(opts)
	if _, err := sr.Publish("chaos", cents); err != nil {
		return stats, err
	}
	asn := NewAssignerOf[T](sr, serve.BatcherOptions{})
	defer asn.Close()

	// The oracle: a single-node batcher over the same snapshots,
	// published in lockstep so versions and centroid bits line up.
	oreg := serve.NewRegistry(1)
	if _, err := oreg.Publish("chaos", cents); err != nil {
		return stats, err
	}
	oracle := serve.NewBatcherOf[T](oreg, serve.BatcherOptions{})
	defer oracle.Close()

	qs := workload.NewQueryStream(workload.Spec{
		Kind: workload.NaturalClusters, D: cfg.D,
		Clusters: cfg.K, Seed: cfg.Seed,
	}, cfg.Seed+1)

	// round answers one query batch against both paths and returns the
	// sharded error, with wrong-row counts folded into *wrong.
	round := func(errs, wrong *int) error {
		q := qs.Next(cfg.BatchRows)
		injectTies(q, cents)
		qt := matrix.Convert[T](q)
		want, err := oracle.AssignBatch("chaos", qt)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		got, err := asn.AssignBatch("chaos", qt)
		stats.Rows += cfg.BatchRows
		if err != nil {
			*errs++
			return nil
		}
		*wrong += diffAssign(got, want)
		return nil
	}

	deadUntil := map[int]int{}
	version := 1
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		// Revivals due this round, ascending machine order for replay
		// stability.
		for m := 0; m < cfg.Machines; m++ {
			if until, ok := deadUntil[m]; ok && until <= r {
				sr.Revive(m)
				delete(deadUntil, m)
				stats.Revives++
				stats.Events = append(stats.Events, ChaosEvent{Round: r, Machine: m})
			}
		}
		// Kill one machine on schedule, chosen by the seeded rng among
		// the machines currently up.
		if cfg.KillEvery > 0 && r > 0 && r%cfg.KillEvery == 0 && len(deadUntil) < cfg.MaxDead {
			var up []int
			for m := 0; m < cfg.Machines; m++ {
				if _, dead := deadUntil[m]; !dead {
					up = append(up, m)
				}
			}
			victim := up[rng.Intn(len(up))]
			sr.Kill(victim)
			deadUntil[victim] = r + cfg.DeadFor
			stats.Kills++
			stats.Events = append(stats.Events, ChaosEvent{Round: r, Machine: victim, Kill: true})
		}
		if cfg.Heal && cfg.Settle {
			if err := settleReplication(sr, cfg.Machines-len(deadUntil), stats.Kills+stats.Revives); err != nil {
				return stats, err
			}
		}
		if deg, unav := sr.Health(); len(unav) > 0 {
			stats.UnavailableRounds++
		} else if len(deg) > 0 {
			stats.DegradedRounds++
		}
		if cfg.PublishEvery > 0 && r > 0 && r%cfg.PublishEvery == 0 {
			cents = chaosCentroids(cfg.K, cfg.D, rng)
			if _, err := sr.Publish("chaos", cents); err != nil {
				return stats, err
			}
			if _, err := oreg.Publish("chaos", cents); err != nil {
				return stats, err
			}
			version++
		}
		stats.Rounds++
		if err := round(&stats.Errors, &stats.Wrong); err != nil {
			return stats, err
		}
	}

	// Recovery: revive everything, let healing settle, and require the
	// caller-visible world to be exact again.
	for m := 0; m < cfg.Machines; m++ {
		if _, ok := deadUntil[m]; ok {
			sr.Revive(m)
			delete(deadUntil, m)
			stats.Revives++
			stats.Events = append(stats.Events, ChaosEvent{Round: cfg.Rounds, Machine: m})
		}
	}
	if cfg.Heal && cfg.Settle {
		if err := settleReplication(sr, cfg.Machines, stats.Kills+stats.Revives); err != nil {
			return stats, err
		}
	}
	for r := 0; r < cfg.FinalRounds; r++ {
		if err := round(&stats.FinalErrors, &stats.FinalWrong); err != nil {
			return stats, err
		}
	}
	stats.Failovers = asn.Failovers()
	stats.Versions = version
	stats.SpreadBytes = sr.SpreadBytes()
	stats.Elapsed = time.Since(start)
	return stats, nil
}
