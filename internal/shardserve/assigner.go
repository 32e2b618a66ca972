package shardserve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"knor/internal/blas"
	"knor/internal/cluster"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// ErrShardUnavailable wraps fan-out errors where every replica of some
// shard group is dead: the global argmin cannot be computed because a
// centroid range answered nowhere (its rows could hold the true
// nearest centroid). Errors carry the group's [lo,hi) centroid range,
// confining the blast radius to that range's models; the HTTP layer
// maps the error to 503. Recovery of any one replica restores exact
// answers.
var ErrShardUnavailable = errors.New("shardserve: shard group unavailable")

// skewRetries bounds how often a fan-out is retried when a publish
// lands mid-flight and shard answers straddle two versions; retry i
// backs off i·skewBackoff first, so a burst of publishes can drain.
// Publishes are rare relative to queries, so this is ample headroom —
// but a publisher sustaining less than a fan-out round trip between
// publishes indefinitely can still starve reads; consistent reads
// under that regime need publish-side pacing, not more retries.
const (
	skewRetries = 16
	skewBackoff = 100 * time.Microsecond
)

// AssignerOf is the fan-out assignment router: requests pass the same
// serve.Edge as the single-node batcher, then fan out to every shard
// group holding the model (a serve.BatcherOf per machine this process
// serves) and fold into the global argmin as the groups answer
// (cluster.CombineMin — associative and commutative, so arrival order
// never changes the result). Bit-identical to the single-node
// serve.BatcherOf for any machine count: shards report raw distances,
// the edge clamps once after the global min, and ties break on the
// lowest global centroid index exactly as the single-node scan does.
//
// Failover: every replica of a shard holds the same centroid rows at
// the same version, so a shard group's answer is replica-independent —
// the goroutine serving group s walks the plan's replica list, skips
// machines whose kill switch is down, and retries the next replica on
// error. Only a group with no answering replica fails the fan-out
// (ErrShardUnavailable).
type AssignerOf[T blas.Float] struct {
	sr   *ShardRegistry
	edge *serve.Edge
	// local[m] answers machine m's shard groups in this process; a
	// machine served by a peer process (cluster mode) has none.
	local map[int]*serve.BatcherOf[T]

	failovers telemetry.Counter
}

// NewAssignerOf starts the sharded assignment path at element type T.
// ModelQuota and Tracer apply at the fan-out edge, so a rejected
// request burns no GEMM time on any shard; Threads applies per shard
// batcher, local or remote (ServePeer). Close stops every shard
// batcher.
func NewAssignerOf[T blas.Float](sr *ShardRegistry, opts serve.BatcherOptions) *AssignerOf[T] {
	a := &AssignerOf[T]{
		sr:    sr,
		edge:  serve.NewEdge(opts, telEdge),
		local: map[int]*serve.BatcherOf[T]{},
	}
	for m := 0; m < sr.Machines(); m++ {
		if sr.remote == nil || sr.remote.LocalMachine(m) {
			a.local[m] = serve.NewBatcherOf[T](sr.Registry(m), serve.BatcherOptions{Threads: opts.Threads})
		}
	}
	return a
}

// NewAssigner builds the sharded assignment path at the requested
// precision, behind the precision-independent serve.Assigner interface
// knorserve programs against.
func NewAssigner(sr *ShardRegistry, opts serve.BatcherOptions, p kmeans.Precision) serve.Assigner {
	if p == kmeans.Precision32 {
		return NewAssignerOf[float32](sr, opts)
	}
	return NewAssignerOf[float64](sr, opts)
}

// shardAnswer is one shard's contribution to a fan-out.
type shardAnswer struct {
	shard   int
	assigns []serve.Assignment
	err     error
}

// AssignBatch answers every row of rows against the named model by
// fanning the batch out to the model's shards. The rows matrix must
// not be mutated until the call returns. A model with no shard plan
// fails before the edge admits it, so a client's guesses at names add
// no series to the registry.
func (a *AssignerOf[T]) AssignBatch(model string, rows *matrix.Mat[T]) ([]serve.Assignment, error) {
	if _, ok := a.sr.GetPlan(model); !ok {
		return nil, errUnknownModel(model)
	}
	return a.edge.Assign(model, rows.Rows(), func(tr *telemetry.Trace) ([]serve.Assignment, time.Time, error) {
		for try := 0; try < skewRetries; try++ {
			if try > 0 {
				telSkewRetries.Inc()
				time.Sleep(time.Duration(try) * skewBackoff)
			}
			out, retry, err := a.fanout(model, rows, tr)
			if err != nil || !retry {
				return out, time.Now(), err
			}
		}
		return nil, time.Time{}, fmt.Errorf("shardserve: model %q: shard versions skewed by concurrent publish", model)
	})
}

// fanout runs one fan-out attempt: every shard group answers against
// its latest snapshot (failing over across its replicas), answers are
// folded into the running global min as they arrive (reduction
// overlapping the slower groups' GEMMs), and a version check detects a
// publish landing mid-flight — the caller retries, since the plan and
// the shard snapshots must describe the same version for the
// local→global index mapping to make sense.
func (a *AssignerOf[T]) fanout(model string, rows *matrix.Mat[T], tr *telemetry.Trace) (out []serve.Assignment, retry bool, err error) {
	plan, ok := a.sr.GetPlan(model)
	if !ok {
		return nil, false, errUnknownModel(model)
	}
	shards := len(plan.Offsets) - 1
	n := rows.Rows()

	dispatch := time.Now()
	answers := make(chan shardAnswer, shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			as, err := a.answerShard(model, s, plan, rows, tr)
			telShardSeconds.With(strconv.Itoa(s)).Observe(time.Since(dispatch).Seconds())
			answers <- shardAnswer{shard: s, assigns: as, err: err}
		}(s)
	}

	pairs := make([]cluster.MinPair, n)
	for i := range pairs {
		pairs[i].Index = -1
	}
	src := make([]cluster.MinPair, n)
	var reduceStart, reduceEnd time.Time
	var reduceTotal time.Duration
	for done := 0; done < shards; done++ {
		ans := <-answers
		tr.Span(fmt.Sprintf("shard_%d", ans.shard), dispatch, time.Now())
		if err != nil || retry {
			continue // drain remaining shards before returning
		}
		if ans.err != nil {
			err = ans.err
			continue
		}
		lo := plan.Offsets[ans.shard]
		for i, as := range ans.assigns {
			if as.Version != plan.Version {
				retry = true
				break
			}
			src[i] = cluster.MinPair{Index: int32(lo) + as.Cluster, Dist: as.SqDist}
		}
		if retry {
			continue
		}
		cs := time.Now()
		cluster.CombineMin(pairs, src)
		ce := time.Now()
		if reduceStart.IsZero() {
			reduceStart = cs
		}
		reduceEnd = ce
		reduceTotal += ce.Sub(cs)
	}
	if !reduceEnd.IsZero() {
		telMinReduceSeconds.Observe(reduceTotal.Seconds())
		tr.Span("min_allreduce", reduceStart, reduceEnd)
	}
	if err != nil {
		// A shard error can itself be plan skew: a republish that
		// shrank k, or a rebalance after a membership change, drops
		// shard copies from machines the old plan still points at. If
		// the plan moved while we were in flight (version or gen),
		// retry with the new one instead of surfacing the transient
		// error.
		if p, ok := a.sr.GetPlan(model); ok && (p.Version != plan.Version || p.Gen != plan.Gen) {
			return nil, true, nil
		}
		return nil, false, err
	}
	if retry {
		return nil, true, nil
	}
	out = make([]serve.Assignment, n)
	for i, p := range pairs {
		out[i] = serve.Assignment{Cluster: p.Index, SqDist: p.Dist, Version: plan.Version}
	}
	return out, false, nil
}

func errUnknownModel(model string) error { return fmt.Errorf("shardserve: unknown model %q", model) }

// answerShard answers shard group s by walking its replica list:
// machines with the kill switch down are skipped (and tried once more
// at the end if they came back), an erroring replica fails over to the
// next, and every pass past the preferred replica
// counts as a failover. All replicas hold identical centroid rows at
// identical versions, so whichever answers first is THE answer. Only a
// group with no answering replica errors, carrying its centroid range.
func (a *AssignerOf[T]) answerShard(model string, s int, plan Plan, rows *matrix.Mat[T], tr *telemetry.Trace) ([]serve.Assignment, error) {
	key := ShardKey(model, s)
	var lastErr error
	var skipped []int
	for i, m := range plan.Replicas[s] {
		if i > 0 {
			a.failovers.Inc()
			telFailovers.With(strconv.Itoa(s)).Inc()
			telemetry.Log("shardserve", telemetry.SevWarn, "failover",
				telemetry.F("model", model), telemetry.F("shard", s), telemetry.F("to_machine", m))
		}
		if a.sr.MachineDown(m) {
			lastErr = fmt.Errorf("machine %d down", m)
			skipped = append(skipped, m)
			continue
		}
		as, err := a.askReplica(m, s, key, rows, tr)
		if err == nil {
			return as, nil
		}
		lastErr = err
	}
	// The kill-switch checks above are not one snapshot: a replica
	// skipped as down may have come back while the walk went on, so a
	// group whose replicas were never all down at once could still look
	// unavailable. Give each such replica one more try. The walk above
	// already counted every pass past the preferred replica, so a retry
	// is journaled but not counted as another failover.
	for _, m := range skipped {
		if a.sr.MachineDown(m) {
			continue
		}
		telemetry.Log("shardserve", telemetry.SevWarn, "retry revived replica",
			telemetry.F("model", model), telemetry.F("shard", s), telemetry.F("machine", m))
		as, err := a.askReplica(m, s, key, rows, tr)
		if err == nil {
			return as, nil
		}
		lastErr = err
	}
	telUnavailable.Inc()
	telemetry.Log("shardserve", telemetry.SevError, "shard unavailable",
		telemetry.F("model", model), telemetry.F("shard", s), telemetry.F("last_err", lastErr))
	return nil, fmt.Errorf("%w: model %q shard %d (centroid rows [%d,%d)): %v",
		ErrShardUnavailable, model, s, plan.Offsets[s], plan.Offsets[s+1], lastErr)
}

// askReplica answers shard group s's rows on machine m: by the raw
// entry of m's batcher when this process serves m, else by RPC to m's
// peer process with the rows' exact bits; an RPC error (dead peer,
// timeout) fails over like any replica error. A sampled trace rides to
// every remote group, which stitches its worker spans back in; locally
// only group 0 records it, so a dump shows one enqueue/coalesce/gemm
// set, inside shard_0.
func (a *AssignerOf[T]) askReplica(m, s int, key string, rows *matrix.Mat[T], tr *telemetry.Trace) ([]serve.Assignment, error) {
	if b, ok := a.local[m]; ok {
		if s > 0 {
			tr = nil
		}
		as, _, err := b.AssignRaw(key, rows, tr)
		return as, err
	}
	return a.sr.remote.AssignRemote(m, key, byte(blas.ElemBytes[T]()), rows.Rows(), rows.Cols(),
		netcluster.AppendFloats(nil, rows.Data), tr)
}

// Failovers reports how many times a fan-out passed over a shard
// group's preferred replica (dead or erring) to a backup.
func (a *AssignerOf[T]) Failovers() uint64 { return a.failovers.Load() }

// AssignRows answers float64 query rows regardless of the assigner's
// element type, converting once when T is narrower — the
// precision-independent entry the HTTP server uses.
func (a *AssignerOf[T]) AssignRows(model string, rows *matrix.Dense) ([]serve.Assignment, error) {
	if m, ok := any(rows).(*matrix.Mat[T]); ok {
		return a.AssignBatch(model, m)
	}
	return a.AssignBatch(model, matrix.Convert[T](rows))
}

// Stats aggregates the fan-out edge's counters with the shard
// batchers' flush counts. Every request is replicated to all shards,
// so Flushes and Queued report the busiest local shard batcher (the
// logical flush/queue count), not the M-inflated sum — avg_batch and
// queue-depth readings stay comparable with the single-node batcher.
func (a *AssignerOf[T]) Stats() serve.BatcherStats {
	st := a.edge.Stats()
	for _, b := range a.local {
		bst := b.Stats()
		st.Flushes = max(st.Flushes, bst.Flushes)
		st.Queued = max(st.Queued, bst.Queued)
	}
	return st
}

// InFlight snapshots the per-model in-flight request counts at the
// fan-out edge (each distributed request counted once, not per shard).
func (a *AssignerOf[T]) InFlight() map[string]int { return a.edge.InFlight() }

// Close rejects new requests and stops every shard batcher.
func (a *AssignerOf[T]) Close() {
	var wg sync.WaitGroup
	for _, b := range a.local {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Close()
		}()
	}
	wg.Wait()
}

var _ serve.Assigner = (*AssignerOf[float64])(nil)
