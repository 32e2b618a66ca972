// Command knorbench regenerates every table and figure of the paper's
// evaluation (Section 8) against the simulated substrates, printing
// aligned text tables. EXPERIMENTS.md records a captured run next to
// the paper's numbers.
//
// Usage:
//
//	knorbench -exp all
//	knorbench -exp fig4,fig5 -scale 2000
//
// Experiments: table1 table2 table3 fig4 fig5 fig6a fig6b fig7 fig8
// fig8mem fig9 fig9mem fig10 fig11 fig12 fig13 ablation precision io
// failover kernels net trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one reproducible artifact.
type experiment struct {
	name  string
	title string
	run   func(e env)
}

// env carries shared harness parameters.
type env struct {
	scale       int // divisor for the billion-row datasets
	friendScale int // divisor for the Friendster datasets
	quick       bool
	// jsonPath, when set, makes experiments that support it (kernels)
	// write a machine-readable report there as well.
	jsonPath string
}

var experiments = []experiment{
	{"table1", "Table 1: asymptotic memory complexity of knor routines", table1},
	{"table2", "Table 2: datasets under evaluation (scale-reduced)", table2},
	{"table3", "Table 3: serial per-iteration time by implementation style", table3},
	{"fig4", "Figure 4: speedup, NUMA-aware knori vs NUMA-oblivious", fig4},
	{"fig5", "Figure 5: partitioned NUMA-aware scheduler vs FIFO vs static", fig5},
	{"fig6a", "Figure 6a: per-iteration bytes requested vs read, row cache on/off", fig6a},
	{"fig6b", "Figure 6b: total bytes requested vs read: knors / knors- / knors--", fig6b},
	{"fig7", "Figure 7: row-cache hits vs active points per iteration", fig7},
	{"fig8", "Figure 8a/b: MTI on/off time per iteration (knori, knors)", fig8},
	{"fig8mem", "Figure 8c: memory, optimized vs vanilla knor routines", fig8mem},
	{"fig9", "Figure 9a/b: knori & knors vs MLlib / H2O / Turi", fig9},
	{"fig9mem", "Figure 9c: peak memory vs frameworks", fig9mem},
	{"fig10", "Figure 10: scalability on RM856M / RM1B / RU2B (scaled)", fig10},
	{"fig11", "Figure 11: distributed speedup, knord vs MPI vs MLlib-EC2", fig11},
	{"fig12", "Figure 12: distributed time per iteration", fig12},
	{"fig13", "Figure 13: knors single node vs distributed packages", fig13},
	{"ablation", "Ablations: task size, I_cache, page size, clause mix, TI vs MTI", ablation},
	{"precision", "Precision: float32 vs float64 kernels, training and serving", precisionExp},
	{"io", "Real I/O: knors on a store file, page cache x prefetch x devices", ioExp},
	{"failover", "Failover: replicated shard serving under a seeded kill schedule, R x kill rate", failoverExp},
	{"kernels", "Kernels: SIMD vs pure-Go GEMM GFLOP/s, row-distance ns/dist, flush µs at both widths", kernelsExp},
	{"net", "Transport: ring allgather, simulated cost model vs real TCP on loopback", netExp},
	{"trace", "Observability: sampled tracing + federation scrape overhead on the serving shape", traceExp},
}

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment list or 'all'")
		scale   = flag.Int("scale", 4000, "row divisor for RM/RU datasets")
		fscale  = flag.Int("fscale", 1000, "row divisor for Friendster datasets")
		quick   = flag.Bool("quick", false, "smaller sweeps for smoke testing")
		jsonOut = flag.String("json", "", "also write a machine-readable report to this file (kernels experiment)")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-9s %s\n", e.name, e.title)
		}
		return
	}
	want := map[string]bool{}
	all := *expFlag == "all"
	for _, n := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(n)] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	for n := range want {
		if n != "all" && n != "" && !known[n] {
			fmt.Fprintf(os.Stderr, "knorbench: unknown experiment %q (use -list)\n", n)
			os.Exit(2)
		}
	}
	e := env{scale: *scale, friendScale: *fscale, quick: *quick, jsonPath: *jsonOut}
	ran := 0
	for _, ex := range experiments {
		if !all && !want[ex.name] {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", ex.name, ex.title)
		ex.run(e)
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "knorbench: nothing to run")
		os.Exit(2)
	}
}

// printTable renders rows of cells with aligned columns.
func printTable(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(header)
	dashes := make([]string, len(header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, r := range rows {
		line(r)
	}
}

func fmtMB(b uint64) string    { return fmt.Sprintf("%.1f", float64(b)/1e6) }
func fmtMs(s float64) string   { return fmt.Sprintf("%.3f", s*1e3) }
func fmtSec(s float64) string  { return fmt.Sprintf("%.4g", s) }
func fmtX(s float64) string    { return fmt.Sprintf("%.2fx", s) }
func fmtGB(b uint64) string    { return fmt.Sprintf("%.3f", float64(b)/1e9) }
func fmtCount(c uint64) string { return fmt.Sprintf("%d", c) }

// sortedKeys returns map keys in sorted order (stable output).
func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
