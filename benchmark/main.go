// Command benchmark is the repository's acceptance benchmark. It builds
// nothing itself (run.sh does): it drives the commit's own parapll-gen,
// parapll-index and parapll-server binaries from one closed-loop
// generator process, checks every answer against Dijkstra on its own
// copy of the graph, and prints every metric by name with its unit.
// The last line of standard output is the result as one JSON object.
//
// See README.md in this directory for what each workload and metric is
// for and how the regression bounds in BENCHMARK.json were measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one run's arguments and directories.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	bin      string // directory holding the program's binaries
	work     string // this run's scratch directory, removed on exit
}

func (c *config) tool(name string) string { return filepath.Join(c.bin, name) }

// sizes are the fixed dataset scales and minimum window counts. Smoke
// mode shrinks all of them so the four workloads finish in seconds.
type sizes struct {
	p2pScale, roadScale, liveScale float64
	minTrials                      int // build trial pairs
	minWindows                     int // latency windows per phase
	setups                         int // repetitions of the set-up sequence
	sources                        int // oracle Dijkstra rows
}

func (c *config) sizes() sizes {
	if c.smoke {
		return sizes{p2pScale: 0.05, roadScale: 0.05, liveScale: 0.05, minTrials: 3, minWindows: 3, setups: 3, sources: 64}
	}
	return sizes{p2pScale: 0.35, roadScale: 0.07, liveScale: 0.15, minTrials: 7, minWindows: 15, setups: 9, sources: 512}
}

// metric is one reported number. detail carries the window count,
// samples per window and quartiles for the human-readable line.
type metric struct {
	name   string
	unit   string
	value  float64
	detail string
}

// result is what a workload hands back: answer-check counts, the
// metrics BENCHMARK.json lists for this kind of run (end-to-end ones
// untraced, per-layer ones traced), what else the run measured, and
// free-form lines for the report.
type result struct {
	attempted int
	failed    int
	metrics   []metric
	beside    []metric // printed, and on the "full:" line, but not in the result
	notes     []string
}

func (r *result) add(name, unit string, value float64, detail string) {
	r.metrics = append(r.metrics, metric{name, unit, value, detail})
}

func (r *result) addWindows(name, unit string, w *windows, scale float64) {
	r.add(name, unit, w.median()*scale, w.describe(scale))
}

// also reports a number that is not one of the run's listed metrics: an
// untraced run's ungated timings, under the names the traced run lists
// them by.
func (r *result) also(name, unit string, value float64, detail string) {
	r.beside = append(r.beside, metric{name, unit, value, detail})
}

func (r *result) alsoWindows(name, unit string, w *windows, scale float64) {
	r.also(name, unit, w.median()*scale, w.describe(scale))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one answer check.
func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

var workloads = map[string]func(*config) (*result, error){
	"build":        runBuild,
	"serve_point":  runServePoint,
	"serve_batch":  runServeBatch,
	"living_mixed": runLivingMixed,
}

func main() {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "build, serve_point, serve_batch or living_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for query pairs, hot set and insert stream")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny graphs and 3 windows, for CI")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding parapll-gen, parapll-index and parapll-server")
	compare := flag.Bool("compare", false, "A/A mode: compare two files of result lines (args: BENCHMARK.json setA setB)")
	flag.Parse()
	cfg.trace = trace != 0

	if *compare {
		if flag.NArg() != 3 {
			die("-compare takes BENCHMARK.json and two result files")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1), flag.Arg(2)))
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		die("unknown -workload %q (want build, serve_point, serve_batch or living_mixed)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		die("-seconds must be positive")
	}
	for _, b := range []string{"parapll-gen", "parapll-index", "parapll-server", "parapll-trace"} {
		if _, err := os.Stat(cfg.tool(b)); err != nil {
			die("missing binary %s (run benchmark/run.sh, which builds them): %v", cfg.tool(b), err)
		}
	}

	work, err := os.MkdirTemp(filepath.Dir(filepath.Clean(cfg.bin)), "run-")
	if err != nil {
		die("creating scratch directory: %v", err)
	}
	cfg.work = work
	// Every exit path goes through finish: kill what is running, remove
	// the scratch directory, then exit.
	finish := func(code int) {
		reapAll()
		os.RemoveAll(cfg.work)
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		finish(130)
	}()

	host := hostInfo()
	t0 := time.Now()
	if cfg.trace {
		run = runTraced
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		finish(1)
	}
	if left := reapAll(); left != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d child process(es) were still running at the end; refusing to report\n", left)
		finish(1)
	}

	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d smoke=%v wall=%.1fs\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.smoke, time.Since(t0).Seconds())
	fmt.Printf("host: %s\n", host)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.detail)
	}
	if len(res.beside) > 0 {
		fmt.Println("measured beside them (not gated; the traced run lists them as per-layer metrics):")
	}
	for _, m := range res.beside {
		fmt.Printf("%-34s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.detail)
	}
	fmt.Printf("answers checked: attempted=%d failed=%d\n", res.attempted, res.failed)
	if res.failed != 0 || res.attempted == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d answer checks failed; refusing to report\n", res.failed, res.attempted)
		finish(1)
	}
	// Everything measured, for aa.sh; then the result the driver reads.
	fmt.Println("full: " + resultLine(res, append(res.metrics[:len(res.metrics):len(res.metrics)], res.beside...)))
	fmt.Println(resultLine(res, res.metrics))
	finish(0)
}

// resultLine renders metrics as the one-line JSON result the driver
// reads.
func resultLine(res *result, metrics []metric) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]mv{}}
	for _, m := range metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil { // a NaN or Inf metric: a bug in a workload
		die("encoding result: %v", err)
	}
	return string(line)
}

// hostInfo describes the machine and commit the numbers belong to.
func hostInfo() string {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(data))[:3], " ")
	}
	return fmt.Sprintf("commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q loadavg=%q",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, load)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
