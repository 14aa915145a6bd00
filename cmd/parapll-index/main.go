// parapll-index runs the indexing stage: it loads a graph, builds the
// 2-hop-cover label index (serially or with the parallel ParaPLL engine)
// and writes the index to disk for parapll-query.
//
// Usage:
//
//	parapll-index -graph data/skitter.bin -out skitter.idx -threads 12 -policy dynamic
//	parapll-index -graph g.txt -out g.idx -serial
//	parapll-index -graph g.bin -out g.idx -engine batched # vertex-centric batched engine
//	parapll-index -graph g.bin -out g.idx -v              # live roots/s + ETA
//	parapll-index -graph g.bin -out g.idx -trace t.json   # build timeline (Perfetto)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parapll"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file (.bin/.txt/.edges/.gr)")
		out       = flag.String("out", "", "output index file")
		threads   = flag.Int("threads", 0, "worker threads (0 = all cores)")
		policy    = flag.String("policy", "dynamic", "assignment policy: static or dynamic")
		ordering  = flag.String("order", "degree", "computing sequence: degree, psi or random")
		seed      = flag.Uint64("seed", 0, "seed for psi/random ordering")
		engine    = flag.String("engine", "perroot", "build engine: perroot (one pruned Dijkstra per root) or batched (vertex-centric root batches)")
		batch     = flag.Int("batch", 0, "batched engine's roots per frontier, 1-64 (0 = default 8)")
		serial    = flag.Bool("serial", false, "use the serial weighted PLL baseline")
		format    = flag.String("format", parapll.FormatMmap, "index file format: mmap (PIDM, the only one)")
		verbose   = flag.Bool("v", false, "report live progress (roots/sec, ETA) every 2s on stderr")
		tracePath = flag.String("trace", "", "record a build timeline and write Chrome trace-event JSON here (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	if *graphPath == "" || *out == "" {
		fatalf("need -graph and -out")
	}
	if *serial && *tracePath != "" {
		fatalf("-trace instruments the parallel engine; drop -serial")
	}
	if *format != parapll.FormatMmap {
		fatalf("unknown format %q (want %s)", *format, parapll.FormatMmap)
	}

	g, err := parapll.LoadGraph(*graphPath)
	if err != nil {
		fatalf("loading graph: %v", err)
	}
	opt := parapll.Options{Threads: *threads, Seed: *seed, BatchSize: *batch}
	switch *engine {
	case parapll.EnginePerRoot, parapll.EngineBatched:
		opt.Engine = *engine
	default:
		fatalf("unknown engine %q (want %s or %s)", *engine, parapll.EnginePerRoot, parapll.EngineBatched)
	}
	if *serial && *engine != parapll.EnginePerRoot {
		fatalf("-engine selects a parallel engine; drop -serial")
	}
	switch *policy {
	case "static":
		opt.Policy = parapll.Static
	case "dynamic":
		opt.Policy = parapll.Dynamic
	default:
		fatalf("unknown policy %q", *policy)
	}
	switch *ordering {
	case "degree":
		opt.Order = parapll.OrderDegree
	case "psi":
		opt.Order = parapll.OrderPsi
	case "random":
		opt.Order = parapll.OrderRandom
	default:
		fatalf("unknown order %q", *ordering)
	}

	var tr *parapll.Tracer
	if *tracePath != "" {
		tr = parapll.NewTracer(0, 0)
		tr.Enable()
		opt.Tracer = tr
	}

	t0 := time.Now()
	var stopLog func()
	if *verbose && !*serial {
		prog := &parapll.BuildProgress{}
		opt.Progress = prog
		stopLog = logProgress(prog, t0)
	}
	// The label store streams into the file: the index is never on the
	// heap beside it, and what is printed below is the header written.
	var idx parapll.IndexHeader
	var stats *parapll.BuildStats
	if *serial {
		idx, err = parapll.BuildSerialFile(*out, g, opt)
	} else {
		idx, stats, err = parapll.BuildFile(*out, g, opt)
	}
	if stopLog != nil {
		stopLog()
	}
	elapsed := time.Since(t0)
	if err != nil {
		fatalf("saving index: %v", err)
	}

	if tr != nil {
		if err := writeTrace(*tracePath, tr); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("trace: %d events (%d dropped) -> %s\n", len(tr.Events()), tr.Drops(), *tracePath)
	}

	k, density := idx.Head()
	k2, midDensity := idx.Mid()
	built := ""
	if stats != nil {
		bk, fill := stats.Head()
		built = fmt.Sprintf("; build head=%d fill %.2f", bk, fill)
	}
	fmt.Printf("indexed n=%d m=%d in %.2fs  (entries=%d, avg label size LN=%.1f, head=%d density %.2f, mid=%d density %.2f, dist=%dB, hub=%dB%s) -> %s\n",
		g.NumVertices(), g.NumEdges(), elapsed.Seconds(),
		idx.NumEntries(), idx.AvgLabelSize(), k, density, k2, midDensity, idx.DistBytes(), idx.HubBytes(), built, *out)
}

// logProgress samples prog every 2s and prints roots done, roots/sec
// and an ETA until the returned stop function is called. Quiet for fast
// builds: nothing prints before the first tick.
func logProgress(prog *parapll.BuildProgress, start time.Time) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := prog.Snapshot()
				elapsed := time.Since(start)
				line := fmt.Sprintf("indexing: %d/%d roots, %d labels, %.0f roots/s",
					s.RootsDone, s.TotalRoots, s.LabelsAdded, s.Rate(elapsed))
				if eta, ok := s.ETA(elapsed); ok {
					line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// writeTrace dumps the recorded timeline as Chrome trace-event JSON.
func writeTrace(path string, tr *parapll.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-index: "+format+"\n", args...)
	os.Exit(1)
}
