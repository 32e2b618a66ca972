package main

import (
	"fmt"

	"knor"
	"knor/internal/dist"
)

// ec2Topo mirrors the paper's c4.8xlarge workers: 2 sockets x 9 cores.
func ec2Topo() knor.Topology { return knor.Topology{Nodes: 2, CoresPerNode: 9} }

// distBase builds the per-machine config. scaleDiv scales the *fixed*
// time constants (network latency, barrier cost) with the dataset so
// full-scale compute-to-latency ratios survive the scale-down; costs
// proportional to bytes or rows already scale with the data.
func distBase(k, threads, scaleDiv int) knor.Config {
	model := knor.DefaultCostModel()
	model.NetLatency /= float64(scaleDiv)
	model.BarrierCost /= float64(scaleDiv)
	return knor.Config{
		K: k, MaxIters: 6, Tol: -1, Init: knor.InitKMeansPP, Seed: 1,
		Threads: threads, TaskSize: 512, Topo: ec2Topo(), Model: model,
		Prune: knor.PruneMTI, Sched: knor.SchedNUMAAware,
	}
}

// runDist runs a distributed configuration. The MLlib mode's per-task
// dispatch is 1ms per full-scale 8192-row partition; with the harness's
// 512-row tasks that is 1ms×512/8192 per task, and because task count
// scales with n no further scale correction is needed. (MLlib never
// prunes: the mode turns pruning off itself.)
func runDist(data *knor.Matrix, machines int, mode dist.Mode, cfg knor.Config) *knor.Result {
	dcfg := knor.DistConfig{Machines: machines, Mode: mode, Kmeans: cfg}
	if mode == knor.ModeMLlib {
		dcfg.MLlibTaskOverhead = 1e-3 * float64(cfg.TaskSize) / 8192
	}
	res, err := knor.RunDistributed(data, dcfg)
	if err != nil {
		panic(err)
	}
	return res
}

// fig11 reproduces the distributed speedup curves: relative performance
// vs total thread count, normalised to each implementation's smallest
// configuration.
func fig11(e env) {
	// Distributed scaling needs enough per-machine work that the
	// collectives' latency doesn't dominate; Friendster runs at a 10x
	// larger scale than the single-node figures.
	fScale := e.friendScale / 10
	if fScale < 1 {
		fScale = 1
	}
	datasets := []struct {
		name  string
		data  *knor.Matrix
		scale int
	}{
		{"Friendster-32", knor.Generate(knor.Spec{
			Kind: knor.NaturalClusters, N: 66_000_000 / fScale, D: 32,
			Clusters: 10, Spread: 0.05, Seed: 32, Grouped: true}), fScale},
		{"RM1B-scaled", knor.Generate(knor.Spec{Kind: knor.UniformMultivariate, N: 1_100_000_000 / e.scale, D: 32, Seed: 1100}), e.scale},
	}
	if e.quick {
		datasets = datasets[1:]
	}
	machineSweep := []int{2, 4, 8} // 18 threads each: 36/72/144 threads
	for _, ds := range datasets {
		var base [3]float64
		var rows [][]string
		for i, m := range machineSweep {
			cells := []string{fmt.Sprintf("%d (%d machines)", m*18, m)}
			for j, mode := range []dist.Mode{knor.ModeKnord, knor.ModeMPI, knor.ModeMLlib} {
				res := runDist(ds.data, m, mode, distBase(10, 18, ds.scale))
				t := simPerIter(res)
				if i == 0 {
					base[j] = t
				}
				cells = append(cells, fmt.Sprintf("%.2f", base[j]/t*float64(machineSweep[0])))
			}
			cells = append(cells, fmt.Sprintf("%d", m))
			rows = append(rows, cells)
		}
		fmt.Printf("  %s (relative performance, normalised so the smallest config = %d)\n", ds.name, machineSweep[0])
		printTable([]string{"Threads", "knord", "MPI", "MLlib-EC2", "Linear(ideal)"}, rows)
	}
}

// fig12 reproduces the distributed time-per-iteration bars.
func fig12(e env) {
	type ds struct {
		name     string
		data     *knor.Matrix
		k        int
		scale    int
		machines []int
	}
	sets := []ds{
		{"Friendster-8", friendster(e, 8, 0.05), 100, e.friendScale, []int{3, 4}},
		{"Friendster-32", friendster(e, 32, 0.05), 100, e.friendScale, []int{3, 6, 7}},
		{"RM856M-scaled", knor.Generate(knor.Spec{Kind: knor.UniformMultivariate, N: 856_000_000 / e.scale, D: 16, Seed: 856}), 10, e.scale, []int{4, 8, 16}},
		{"RM1B-scaled", knor.Generate(knor.Spec{Kind: knor.UniformMultivariate, N: 1_100_000_000 / e.scale, D: 32, Seed: 1100}), 10, e.scale, []int{8, 16}},
	}
	if e.quick {
		sets = sets[:1]
	}
	for _, s := range sets {
		var rows [][]string
		for _, m := range s.machines {
			cfg := distBase(s.k, 18, s.scale)
			knord := runDist(s.data, m, knor.ModeKnord, cfg)
			mpi := runDist(s.data, m, knor.ModeMPI, cfg)
			noPrune := cfg
			noPrune.Prune = knor.PruneNone
			knordMinus := runDist(s.data, m, knor.ModeKnord, noPrune)
			mpiMinus := runDist(s.data, m, knor.ModeMPI, noPrune)
			mllib := runDist(s.data, m, knor.ModeMLlib, cfg)
			rows = append(rows, []string{
				fmt.Sprintf("%d", m*18),
				fmtSec(simPerIter(knord)), fmtSec(simPerIter(mpi)),
				fmtSec(simPerIter(knordMinus)), fmtSec(simPerIter(mpiMinus)),
				fmtSec(simPerIter(mllib)),
			})
		}
		fmt.Printf("  %s, k=%d (time/iter s; paper: knord < MPI, MLlib >=5x behind)\n", s.name, s.k)
		printTable([]string{"Cores", "knord", "MPI", "knord-", "MPI-", "MLlib-EC2"}, rows)
	}
}

// fig13 compares single-node knors against the distributed packages.
func fig13(e env) {
	type ds struct {
		name     string
		data     *knor.Matrix
		scale    int
		machines int
	}
	sets := []ds{
		{"Friendster-8", friendster(e, 8, 0.05), e.friendScale, 3},
		{"Friendster-32", friendster(e, 32, 0.05), e.friendScale, 3},
		{"RM856-scaled", knor.Generate(knor.Spec{Kind: knor.UniformMultivariate, N: 856_000_000 / e.scale, D: 16, Seed: 856}), e.scale, 3},
		{"RU1B-scaled", knor.Generate(knor.Spec{Kind: knor.UniformUnivariate, N: 1_100_000_000 / e.scale, D: 64, Seed: 2100}), e.scale, 8},
	}
	if e.quick {
		sets = sets[:2]
	}
	var rows [][]string
	for _, s := range sets {
		// knors on one fat node (i3.16xlarge-like: 32 cores, 8 SSDs).
		semCfg := knor.SEMConfig{
			Kmeans: knor.Config{
				K: 10, MaxIters: 6, Tol: -1, Init: knor.InitKMeansPP, Seed: 1,
				Threads: 48, TaskSize: 512, Prune: knor.PruneMTI,
			},
			Devices: 8, PageCacheBytes: 1 << 22, RowCacheBytes: 1 << 22,
		}
		knors, err := knor.RunSEM(s.data, semCfg)
		if err != nil {
			panic(err)
		}
		cfg := distBase(10, 18, s.scale)
		knord := runDist(s.data, s.machines, knor.ModeKnord, cfg)
		mpi := runDist(s.data, s.machines, knor.ModeMPI, cfg)
		mllib := runDist(s.data, s.machines, knor.ModeMLlib, cfg)
		rows = append(rows, []string{
			s.name,
			fmtSec(simPerIter(knors)),
			fmtSec(simPerIter(mllib)),
			fmtSec(simPerIter(knord)),
			fmtSec(simPerIter(mpi)),
		})
	}
	fmt.Println("  (knors: 1 node w/ 8 SSDs; others: cluster; paper: knors often beats MLlib's cluster)")
	printTable([]string{"Dataset", "knors(1 node)", "MLlib-EC2", "knord", "MPI"}, rows)
}
