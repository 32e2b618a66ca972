package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/sem"
	"knor/internal/store"
	"knor/internal/workload"
)

// setups is how many times a run sets everything up; setup_s is the
// median. With -trace 1 the first set-up's servers run with tracing on
// and serve the traced pass.
const setups = 5

// runConfig is one run of one workload.
type runConfig struct {
	bin     string  // knorserve binary
	dir     string  // scratch directory for this run
	seed    int64   // seeds every generated input
	seconds float64 // measurement budget
	trace   bool    // also make the traced pass and per-layer metrics
	toy     bool    // toy sizes: percentiles may lack their tail samples
	// warmup is the untimed load each deployment gets before its phases.
	warmup   time.Duration
	traceDir string // where the traced pass writes <workload>.trace.json
}

// result is one run's outcome: every metric it measured, by name.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // sample count behind each percentile and median
	// Notes are report lines that are not metrics: the GEMM kernel,
	// retry and failover counts, reconciliations, traced self times.
	Notes     []string `json:"notes"`
	tracePath string
}

// set records a metric. A value that is not a number (a histogram that
// saw nothing) is left out, so the report names it as not measured.
func (r *result) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s: no data", name)
		return
	}
	r.Metrics[name] = v
	if samples > 0 {
		r.Samples[name] = samples
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// env is one set-up: the training data on disk and in memory, and the
// two knorserve deployments with their models trained.
type env struct {
	data            *matrix.Dense
	storePath       string
	single, cluster *deployment
}

func setUp(c runConfig, w workloadDef, dir string, traceEvery int) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{data: workload.Generate(w.Train.spec(c.seed)), storePath: filepath.Join(dir, "train.knor")}
	if err := store.WriteDense(e.data, e.storePath, 8); err != nil {
		return nil, fmt.Errorf("write store file: %w", err)
	}
	var err error
	for _, dep := range []struct {
		sh  serveShape
		out **deployment
		sub string
	}{{w.Single, &e.single, "single"}, {w.Cluster, &e.cluster, "cluster"}} {
		sub := filepath.Join(dir, dep.sub)
		if err = os.MkdirAll(sub, 0o755); err != nil {
			break
		}
		if *dep.out, err = startDeployment(c.bin, sub, dep.sh, c.seed, traceEvery); err != nil {
			break
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	for _, d := range []*deployment{e.single, e.cluster} {
		if d != nil {
			d.stop()
		}
	}
}

// rounds is how many times a run cycles through its measurements.
// Training and every serving phase run a share of each round, so each
// metric samples the whole run rather than one stretch of it: on a
// shared machine slow periods last seconds, and a metric measured in
// one contiguous stretch would read them as a change.
const rounds = 3

// runWorkload makes one run: set-up (five times), then rounds of
// knori and knors training and of low- and high-rate load on the
// single-node and the cluster deployment, then with trace on the traced
// pass. Every output is checked; an error means a gate failed or the
// run could not complete.
func runWorkload(c runConfig, w workloadDef) (*result, error) {
	r := &result{Workload: w.Name, Seed: c.seed, Trace: c.trace,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	var cur, traced *env
	defer func() {
		for _, e := range []*env{cur, traced} {
			if e != nil {
				e.close()
			}
		}
	}()
	var setupS []float64
	for i := 0; i < setups; i++ {
		traceEvery := 0
		if c.trace && i == 0 {
			traceEvery = 1
		}
		t0 := time.Now()
		e, err := setUp(c, w, filepath.Join(c.dir, fmt.Sprintf("setup%d", i)), traceEvery)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		switch {
		case traceEvery > 0:
			e.data = nil
			traced = e
		case i == setups-1:
			cur = e
		default:
			e.close()
		}
	}
	r.set("setup_s", median(setupS), len(setupS))

	budget := time.Duration(c.seconds * float64(time.Second))
	tr, err := newTraining(c, w, cur)
	if err != nil {
		return nil, err
	}
	serving := []*servingRun{newServingRun(c, "serve", cur.single, r), newServingRun(c, "cluster", cur.cluster, r)}
	for _, s := range serving {
		if _, err := s.phase(s.d.shape.Low, c.warmup); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", s.prefix, err)
		}
	}
	for round := 0; round < rounds; round++ {
		if err := tr.round(budget / 2 / rounds); err != nil {
			return nil, err
		}
		for _, s := range serving {
			if err := s.chunk(s.d.shape.Low, budget/8/rounds, false); err != nil {
				return nil, err
			}
		}
		for _, s := range serving {
			if err := s.chunk(s.d.shape.High, budget/8/rounds, true); err != nil {
				return nil, err
			}
		}
	}
	if err := tr.finish(r); err != nil {
		return nil, err
	}
	for _, s := range serving {
		if err := s.finish(); err != nil {
			return nil, err
		}
	}
	if !c.trace {
		r.Correct = true
		return r, nil
	}
	rec := newRecorder()
	if err := tr.traced(rec, r); err != nil {
		return nil, err
	}
	if err := tracedServing(c, "serve", traced.single, budget/8, rec, r); err != nil {
		return nil, err
	}
	if err := tracedServing(c, "cluster", traced.cluster, budget/8, rec, r); err != nil {
		return nil, err
	}
	r.tracePath = filepath.Join(c.traceDir, w.Name+".trace.json")
	if err := rec.write(r.tracePath, map[string]any{"workload": w.Name, "seed": c.seed}); err != nil {
		return nil, err
	}
	for _, st := range selfTimes(rec.spans) {
		r.note("self time %-24s %9.4f ms mean over %d spans (total %.4f ms)", st.Name, st.SelfMS, st.Count, st.TotalMS)
	}
	r.Correct = true
	return r, nil
}

// training is a run's knori and knors measurement on the set-up's data.
type training struct {
	w            workloadDef
	e            *env
	cfg          kmeans.Config
	scfg         sem.Config
	oracle       *kmeans.Result
	knori, knors *trainer
	storeBefore  scrape
}

// newTraining runs the serial oracle and prepares both engines.
func newTraining(c runConfig, w workloadDef, e *env) (*training, error) {
	t := &training{w: w, e: e, cfg: w.Train.kmeansConfig(c.seed), scfg: w.Train.semConfig(c.seed)}
	var err error
	if t.oracle, err = kmeans.RunSerial(e.data, t.cfg); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	t.knori = &trainer{name: "knori", oracle: t.oracle,
		run: func() (*kmeans.Result, error) { return kmeans.Run(e.data, t.cfg) }}
	t.knors = &trainer{name: "knors", oracle: t.oracle,
		run: func() (*kmeans.Result, error) {
			eng, err := sem.NewFromFile(e.storePath, t.scfg)
			if err != nil {
				return nil, err
			}
			defer eng.Close()
			return eng.Finish()
		}}
	t.storeBefore, err = storeCounters()
	return t, err
}

// round makes one memory run of each engine, then alternates timed
// knori and knors runs until budget is spent, at least one of each.
func (t *training) round(budget time.Duration) error {
	for _, tr := range []*trainer{t.knori, t.knors} {
		if err := tr.memory(); err != nil {
			return err
		}
	}
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		for _, tr := range []*trainer{t.knori, t.knors} {
			if err := tr.rep(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish sets the training metrics: times, memory, and the work counts
// of the last run of each engine.
func (t *training) finish(r *result) error {
	after, err := storeCounters()
	if err != nil {
		return err
	}
	knori, knors, n := t.knori, t.knors, t.w.Train.N
	r.Attempted += len(knori.secs) + len(knori.peaks) + len(knors.secs) + len(knors.peaks)
	r.set("kmeans.train_s", median(knori.secs), len(knori.secs))
	r.set("sem.train_s", median(knors.secs), len(knors.secs))
	r.set("knori_mb", median(knori.peaks)+float64(n*t.w.Train.D*8)/1e6, len(knori.peaks))
	r.set("knors_mb", median(knors.peaks), len(knors.peaks))

	var dc uint64
	for _, st := range knori.last.PerIter {
		dc += st.DistCalcs
	}
	it := knori.last.Iters
	r.set("kmeans.dist_calcs", float64(dc), 0)
	r.set("kmeans.iters", float64(it), 0)
	r.set("kmeans.pruned_frac", 1-float64(dc)/(float64(n)*float64(t.w.Train.K)*float64(it)), 0)

	var active, hits, wanted, read uint64
	for _, st := range knors.last.PerIter {
		active += uint64(st.ActiveRows)
		hits += st.RowCacheHits
		wanted += st.BytesWanted
		read += st.BytesRead
	}
	r.set("sem.active_rows", float64(active), 0)
	r.set("sem.rowcache_hit_frac", float64(hits)/float64(active), 0)
	r.set("store.requested_mb", float64(wanted)/1e6, 0)
	r.set("store.read_mb", float64(read)/1e6, 0)
	r.set("store.read_amp", float64(read)/float64(wanted), 0)
	d := after.sub(t.storeBefore)
	runs := float64(len(knors.secs) + len(knors.peaks))
	ph, pm := d.sum("knor_store_page_hits_total"), d.sum("knor_store_page_misses_total")
	r.set("store.page_hit_frac", ph/(ph+pm), 0)
	r.set("store.merged_reads", d.sum("knor_store_merged_reads_total")/runs, 0)
	r.set("store.prefetch_hit_frac", d.sum("knor_store_prefetch_used_total")/(ph+pm), 0)
	return nil
}

// traced drives one knori and one knors run through their public
// phases with spans around each call, checks both, and sets the
// span-derived metrics.
func (t *training) traced(rec *recorder, r *result) error {
	t0 := time.Now()
	res, err := tracedKnori(t.e.data, t.cfg, rec, "knori")
	wall := time.Since(t0)
	if err == nil {
		err = checkTrain(res, t.oracle)
	}
	if err != nil {
		return fmt.Errorf("traced knori: %w", err)
	}
	local, apply := rec.byName("kmeans.LocalPhase"), rec.byName("kmeans.ApplyGlobal")
	r.set("kmeans.local_ms.p50", median(local), len(local))
	r.set("kmeans.apply_ms.p50", median(apply), len(apply))
	r.set("trace_overhead.knori", wall.Seconds()/r.Metrics["kmeans.train_s"], 0)
	r.note("knori traced run: spans cover %.1f%% of its %.1f ms wall time",
		100*(sum(local)+sum(apply)+sum(rec.byName("knori/init"))+sum(rec.byName("knori/finish")))/ms(wall), ms(wall))

	t0 = time.Now()
	res, err = tracedKnors(t.e.storePath, t.scfg, t.oracle.Iters, rec, "knors")
	wall = time.Since(t0)
	if err == nil {
		err = checkTrain(res, t.oracle)
	}
	if err != nil {
		return fmt.Errorf("traced knors: %w", err)
	}
	steps := rec.byName("sem.Step")
	r.set("sem.step_ms.p50", median(steps), len(steps))
	r.set("trace_overhead.knors", wall.Seconds()/r.Metrics["sem.train_s"], 0)
	r.note("knors traced run: spans cover %.1f%% of its %.1f ms wall time",
		100*(sum(steps)+sum(rec.byName("knors/open"))+sum(rec.byName("knors/finish")))/ms(wall), ms(wall))
	r.Attempted += 2
	return nil
}
