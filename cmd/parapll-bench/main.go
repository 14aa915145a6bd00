// parapll-bench regenerates the paper's evaluation: Tables 3–5, Figures
// 5–7 and the introduction's query-latency comparison, on the synthetic
// stand-in datasets at a configurable scale.
//
// Usage:
//
//	parapll-bench -exp table3 -scale 0.05
//	parapll-bench -exp fig7 -scale 0.02 -nodes 6 -csv fig7.csv
//	parapll-bench -exp all -scale 0.01 -datasets Wiki-Vote,Gnutella
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parapll/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table3,table4,table5,fig5,fig6,fig7,query,ablations,sync,load,trace,build,update,all")
		scale    = flag.Float64("scale", 0.02, "dataset scale in (0,1]; 1.0 = paper-scale (slow!)")
		datasets = flag.String("datasets", "", "comma-separated dataset filter (default: all)")
		threads  = flag.String("threads", "1,2,4,6,8,10,12", "thread sweep for tables 3-4")
		nodes    = flag.String("nodes", "1,2,3,4,5,6", "node sweep for table 5")
		syncs    = flag.String("syncs", "1,2,4,8,16,32,64,128", "sync-count sweep for figure 7")
		fig7n    = flag.Int("fig7nodes", 6, "cluster size for figure 7")
		perNode  = flag.Int("threads-per-node", 2, "threads per simulated cluster node")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		jsonPath = flag.String("json", "", "write the sync/load/trace/build/update experiments' raw records as JSON to this file")
		batch    = flag.Int("batch", 0, "build experiment's batched-engine roots per frontier (0 = default)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig(*scale)
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	var err error
	if cfg.Threads, err = parseInts(*threads); err != nil {
		fatalf("-threads: %v", err)
	}
	if cfg.Nodes, err = parseInts(*nodes); err != nil {
		fatalf("-nodes: %v", err)
	}
	if cfg.SyncCounts, err = parseInts(*syncs); err != nil {
		fatalf("-syncs: %v", err)
	}

	type runner struct {
		name string
		run  func() (*bench.Table, error)
	}
	var syncResults []bench.SyncResult
	var loadResults []bench.LoadResult
	var traceResults []bench.TraceResult
	var buildResults []bench.BuildResult
	var updateResults []bench.UpdateResult
	all := []runner{
		{"table3", func() (*bench.Table, error) { return bench.RunTable3(cfg) }},
		{"table4", func() (*bench.Table, error) { return bench.RunTable4(cfg) }},
		{"table5", func() (*bench.Table, error) { return bench.RunTable5(cfg, *perNode) }},
		{"fig5", func() (*bench.Table, error) { return bench.RunFig5(cfg) }},
		{"fig6", func() (*bench.Table, error) { return bench.RunFig6(cfg, maxOf(cfg.Threads)) }},
		{"fig7", func() (*bench.Table, error) { return bench.RunFig7(cfg, *fig7n, *perNode) }},
		{"query", func() (*bench.Table, error) { return bench.RunQueryComparison(cfg, maxOf(cfg.Threads)) }},
		{"ablations", func() (*bench.Table, error) { return bench.RunAblations(cfg, maxOf(cfg.Threads)) }},
		{"sync", func() (*bench.Table, error) {
			table, results, err := bench.RunSync(cfg, *fig7n, *perNode)
			if err != nil {
				return nil, err
			}
			syncResults = append(syncResults, results...)
			return table, nil
		}},
		{"load", func() (*bench.Table, error) {
			table, results, err := bench.RunLoad(cfg)
			if err != nil {
				return nil, err
			}
			loadResults = append(loadResults, results...)
			return table, nil
		}},
		{"trace", func() (*bench.Table, error) {
			table, results, err := bench.RunTrace(cfg, maxOf(cfg.Threads))
			if err != nil {
				return nil, err
			}
			traceResults = append(traceResults, results...)
			return table, nil
		}},
		{"build", func() (*bench.Table, error) {
			table, results, err := bench.RunBuild(cfg, maxOf(cfg.Threads), *batch)
			if err != nil {
				return nil, err
			}
			buildResults = append(buildResults, results...)
			return table, nil
		}},
		{"update", func() (*bench.Table, error) {
			table, results, err := bench.RunUpdate(cfg, maxOf(cfg.Threads))
			if err != nil {
				return nil, err
			}
			updateResults = append(updateResults, results...)
			return table, nil
		}},
	}
	var selected []runner
	if *exp == "all" {
		selected = all
	} else {
		for _, r := range all {
			if r.name == *exp {
				selected = []runner{r}
			}
		}
		if selected == nil {
			fatalf("unknown experiment %q", *exp)
		}
	}

	var csvFile *os.File
	if *csvPath != "" {
		csvFile, err = os.Create(*csvPath)
		if err != nil {
			fatalf("creating %s: %v", *csvPath, err)
		}
		defer csvFile.Close()
	}
	for _, r := range selected {
		table, err := r.run()
		if err != nil {
			fatalf("%s: %v", r.name, err)
		}
		if err := table.WriteText(os.Stdout); err != nil {
			fatalf("rendering %s: %v", r.name, err)
		}
		fmt.Println()
		if csvFile != nil {
			fmt.Fprintf(csvFile, "# %s\n", r.name)
			if err := table.WriteCSV(csvFile); err != nil {
				fatalf("csv %s: %v", r.name, err)
			}
		}
	}
	if *jsonPath != "" {
		kinds := 0
		for _, nonEmpty := range []bool{
			len(syncResults) > 0, len(loadResults) > 0,
			len(traceResults) > 0, len(buildResults) > 0,
			len(updateResults) > 0,
		} {
			if nonEmpty {
				kinds++
			}
		}
		if kinds == 0 {
			fatalf("-json requires the sync, load, trace, build or update experiment (-exp sync/load/trace/build/update or -exp all)")
		}
		jf, err := os.Create(*jsonPath)
		if err != nil {
			fatalf("creating %s: %v", *jsonPath, err)
		}
		defer jf.Close()
		// Single-experiment runs keep their legacy BENCH_<exp>.json shape
		// (a bare array) so existing tooling keeps parsing; mixed runs get
		// a keyed object.
		switch {
		case kinds == 1 && len(syncResults) > 0:
			err = bench.WriteSyncJSON(jf, syncResults)
		case kinds == 1 && len(loadResults) > 0:
			err = bench.WriteLoadJSON(jf, loadResults)
		case kinds == 1 && len(traceResults) > 0:
			err = bench.WriteTraceJSON(jf, traceResults)
		case kinds == 1 && len(buildResults) > 0:
			err = bench.WriteBuildJSON(jf, buildResults)
		case kinds == 1:
			err = bench.WriteUpdateJSON(jf, updateResults)
		default:
			enc := json.NewEncoder(jf)
			enc.SetIndent("", "  ")
			out := map[string]any{}
			if len(syncResults) > 0 {
				out["sync"] = syncResults
			}
			if len(loadResults) > 0 {
				out["load"] = loadResults
			}
			if len(traceResults) > 0 {
				out["trace"] = traceResults
			}
			if len(buildResults) > 0 {
				out["build"] = buildResults
			}
			if len(updateResults) > 0 {
				out["update"] = updateResults
			}
			err = enc.Encode(out)
		}
		if err != nil {
			fatalf("json: %v", err)
		}
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func maxOf(xs []int) int {
	best := xs[0]
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-bench: "+format+"\n", args...)
	os.Exit(1)
}
