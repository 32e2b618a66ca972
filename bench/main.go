// Command bench is knor's end-to-end benchmark. One run of a workload
// sets up (generated data, a store file, a single-process knorserve and
// a coordinator-plus-worker knorserve cluster, each training its model),
// times knori (kmeans.Run) and knors (sem.NewFromFile(...).Finish())
// against the serial oracle, and drives both servers over loopback HTTP
// with an open-loop /v1/assign load and a write stream. Every training
// result and every served answer is checked; a run that fails a check
// exits non-zero.
//
// From the repository root:
//
//	bash bench/run.sh --workload d16 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1                      # every workload
//	bash bench/run.sh -seed 1 -trace 1 -out runs.json
//	bash bench/run.sh -compare A.json B.json
//
// The last line of standard output is a JSON object with the run's
// end-to-end metrics (-trace 0) or per-layer metrics (-trace 1), as
// BENCHMARK.json lists them; the lines above it report every metric
// with its unit and sample count. bench/README.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one workload run; the servers are killed past it.
const runLimit = 175 * time.Second

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "all", "workload to run (d16, d32 or all)")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 0, "measurement seconds per run (0 = BENCHMARK.json run_seconds)")
		trace   = fs.Int("trace", 0, "1 = add the traced pass and report the per-layer metrics")
		out     = fs.String("out", "", "append each run's full record to this JSON file")
		compare = fs.Bool("compare", false, "compare two record files: -compare A.json B.json")
		toy     = fs.Bool("toy", false, "shrink every workload to a few seconds (harness test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cat, err := loadCatalogue(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		regressed, err := compareFiles(cat, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(cat.RunSeconds)
	}
	var ws []workloadDef
	if *wname == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*wname)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []workloadDef{w}
	}

	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "knorserve")
	fmt.Fprintln(stderr, "bench: building knorserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/knorserve")
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, stderr, stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(stderr, "bench: build knorserve:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	defer killAll()

	status := 0
	for _, w := range ws {
		c := runConfig{bin: bin, seed: *seed, seconds: *seconds, trace: *trace == 1, toy: *toy,
			warmup: 500 * time.Millisecond, traceDir: filepath.Join(root, "bench", "out"),
			dir: filepath.Join(build, fmt.Sprintf("run-%d-%s", os.Getpid(), w.Name))}
		if *toy {
			w, c.warmup = w.toy(), 200*time.Millisecond
		}
		watchdog := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(stderr, "bench: %s run exceeded %s\n", w.Name, runLimit)
			killAll()
			os.Exit(1)
		})
		r, err := runWorkload(c, w)
		watchdog.Stop()
		os.RemoveAll(c.dir)
		if err == nil {
			err = report(cat, r, stdout)
		}
		if err == nil && *out != "" {
			err = appendRecord(*out, r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			attempted, failed := 1, 0
			if r != nil {
				attempted, failed = max(r.Attempted, 1), r.Failed
			}
			fmt.Fprintf(stdout, `{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`+"\n", attempted, failed)
			status = 1
		}
	}
	return status
}

// findRoot walks up from the working directory to the repository root,
// the directory holding BENCHMARK.json and the knor module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "BENCHMARK.json")) && isFile(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json with a go.mod beside it above the working directory")
		}
		dir = parent
	}
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

// report prints every metric the run measured with its unit and sample
// count, the run's notes, and last the JSON result line: the end-to-end
// metrics, or with -trace 1 the per-layer metrics.
func report(cat *catalogue, r *result, w io.Writer) error {
	fmt.Fprintf(w, "== %s seed %d trace %v: %d operations, %d failed\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	listed := map[string]bool{}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end", cat.EndToEnd}, {"per-layer", cat.PerLayer}} {
		fmt.Fprintf(w, "-- %s\n", group.title)
		for _, m := range group.defs {
			listed[m.Name] = true
			v, ok := r.Metrics[m.Name]
			if !ok {
				continue
			}
			n := ""
			if s := r.Samples[m.Name]; s > 0 {
				n = fmt.Sprintf("  (n=%d)", s)
			}
			fmt.Fprintf(w, "%-28s %16.6g %-6s%s\n", m.Name, v, m.Unit, n)
		}
	}
	for name := range r.Metrics {
		if !listed[name] {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	if r.tracePath != "" {
		fmt.Fprintln(w, "trace:", r.tracePath)
	}
	defs := cat.EndToEnd
	if r.Trace {
		defs = cat.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	var missing []string
	for _, m := range defs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run did not measure %s", strings.Join(missing, ", "))
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err) // a NaN or Inf metric
	}
	fmt.Fprintln(w, string(buf))
	return nil
}

// records is the -out file: every run appended by -out, the input of
// -compare.
type records struct {
	Runs []*result `json:"runs"`
}

func appendRecord(path string, r *result) error {
	var rs records
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &rs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rs.Runs = append(rs.Runs, r)
	buf, err := json.MarshalIndent(&rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
