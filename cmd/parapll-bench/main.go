// parapll-bench regenerates the paper's evaluation: Tables 3–5, Figures
// 5–7, the introduction's query-latency comparison and the design
// ablations, on the synthetic stand-in datasets at a configurable
// scale. Timings of the shipped binaries (build, serving, living graph)
// are benchmark/'s job, not this tool's.
//
// Usage:
//
//	parapll-bench -exp table3 -scale 0.05
//	parapll-bench -exp fig7 -scale 0.02 -nodes 6 -csv fig7.csv
//	parapll-bench -exp all -scale 0.01 -datasets Wiki-Vote,Gnutella
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parapll/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table3,table4,table5,fig5,fig6,fig7,query,ablations,all")
		scale    = flag.Float64("scale", 0.02, "dataset scale in (0,1]; 1.0 = paper-scale (slow!)")
		datasets = flag.String("datasets", "", "comma-separated dataset filter (default: all)")
		threads  = flag.String("threads", "1,2,4,6,8,10,12", "thread sweep for tables 3-4")
		nodes    = flag.String("nodes", "1,2,3,4,5,6", "node sweep for table 5")
		syncs    = flag.String("syncs", "1,2,4,8,16,32,64,128", "sync-count sweep for figure 7")
		fig7n    = flag.Int("fig7nodes", 6, "cluster size for figure 7")
		perNode  = flag.Int("threads-per-node", 2, "threads per simulated cluster node")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
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
	all := []runner{
		{"table3", func() (*bench.Table, error) { return bench.RunTable3(cfg) }},
		{"table4", func() (*bench.Table, error) { return bench.RunTable4(cfg) }},
		{"table5", func() (*bench.Table, error) { return bench.RunTable5(cfg, *perNode) }},
		{"fig5", func() (*bench.Table, error) { return bench.RunFig5(cfg) }},
		{"fig6", func() (*bench.Table, error) { return bench.RunFig6(cfg, maxOf(cfg.Threads)) }},
		{"fig7", func() (*bench.Table, error) { return bench.RunFig7(cfg, *fig7n, *perNode) }},
		{"query", func() (*bench.Table, error) { return bench.RunQueryComparison(cfg, maxOf(cfg.Threads)) }},
		{"ablations", func() (*bench.Table, error) { return bench.RunAblations(cfg) }},
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
