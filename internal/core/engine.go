package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
	"parapll/internal/task"
	"parapll/internal/trace"
)

// Engine is the seam between the build orchestration (Options, task
// manager, progress/trace instrumentation, label store) and the
// algorithm that turns roots into labels. Both engines consume roots
// from the same task.Manager and write through the same LabelStore, so
// assignment policies, the cluster path's recording stores and all
// instrumentation compose with either; they differ only in how a
// worker processes the roots it claims:
//
//   - PerRoot (the paper's ParaPLL): one pruned Dijkstra per root — a
//     private priority queue, prune test at every settled pop, labels
//     appended as vertices settle.
//   - Batched (vertex-centric, after "PLL Meets Vertex-Centric",
//     arXiv 1906.12018): a worker claims a batch of up to 64 roots and
//     propagates all of them together as one shared frontier — per
//     round, each frontier vertex loads its adjacency once and relaxes
//     every active root, with per-activation pruning against the
//     growing index; exact labels are committed after the batch's
//     distances converge.
//
// Run processes every root mgr hands out and returns per-worker work
// counters (len == mgr.Workers()); it must honor RunConfig's Trace /
// Progress / Tracer / Phase contract and route store accesses through
// PerWorkerStore views when the store provides them.
type Engine interface {
	// Name returns the engine's CLI/bench name ("perroot", "batched").
	Name() string
	// Run drains mgr into store and returns per-worker work counters.
	Run(g *graph.Graph, mgr task.Manager, store LabelStore, cfg RunConfig) []int64
}

// Engine names accepted by EngineByName (and the -engine CLI flags).
const (
	EnginePerRoot = "perroot"
	EngineBatched = "batched"
)

// EngineByName resolves a CLI engine name. batch is the batched
// engine's roots-per-batch (<= 0 picks the default, clamped to 64);
// it is ignored by the per-root engine. An empty name means perroot.
func EngineByName(name string, batch int) (Engine, error) {
	switch name {
	case "", EnginePerRoot:
		return PerRoot{}, nil
	case EngineBatched:
		return Batched{BatchSize: batch}, nil
	default:
		return nil, fmt.Errorf("core: unknown engine %q (want %s or %s)", name, EnginePerRoot, EngineBatched)
	}
}

// PerRoot is the paper's intra-node engine: mgr.Workers() goroutines,
// each owning a pll.Searcher, each running one pruned Dijkstra per
// claimed root against the shared store. The zero value is ready to use.
type PerRoot struct{}

// Name implements Engine.
func (PerRoot) Name() string { return EnginePerRoot }

// Run implements Engine: mgr.Workers() goroutines, each owning a
// pll.Searcher, until the task manager is exhausted; it returns each
// worker's total work. If store implements PerWorkerStore, each worker
// routes its accesses through its private WorkerView (the cluster sync
// pipeline records labels per completed root this way).
func (PerRoot) Run(g *graph.Graph, mgr task.Manager, store LabelStore, cfg RunConfig) []int64 {
	phase := cfg.Phase
	if phase == "" {
		phase = "build"
	}
	tr := cfg.Tracer
	var idAcquire, idDijkstra, idAppend trace.ID
	if tr.Enabled() {
		idAcquire = tr.Intern("task acquire", "worker")
		idDijkstra = tr.Intern("pruned dijkstra", "root", "added", "pruned", "worker")
		idAppend = tr.Intern("label append", "labels")
	}
	perWorker := make([]int64, mgr.Workers())
	runPool(mgr.Workers(), phase, func(w int) {
		runWorker(g, mgr, store, cfg, w, perWorker, idAcquire, idDijkstra, idAppend)
	})
	return perWorker
}

// runPool runs fn(w) on `workers` goroutines, each under pprof labels
// (phase, worker) so CPU profiles segment by phase and worker, and
// returns once all have finished.
func runPool(workers int, phase string, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("phase", phase, "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) { fn(w) })
		}(w)
	}
	wg.Wait()
}

// runWorker is one per-root worker's loop. buf is nil unless tracing was
// enabled when the run started, so the untraced path pays only nil checks.
func runWorker(g *graph.Graph, mgr task.Manager, store LabelStore, cfg RunConfig, w int, perWorker []int64, idAcquire, idDijkstra, idAppend trace.ID) {
	view := workerView(store, w, mgr.Workers())
	tr := cfg.Tracer
	var buf *trace.Buf
	if tr.Enabled() {
		buf = tr.Buf(w)
		tr.SetThreadName(w, "worker "+strconv.Itoa(w))
	}
	var appendNs int64
	appendFn := func(u graph.Vertex, e label.Entry) { view.Append(u, e.Hub, e.D) }
	if buf != nil {
		appendFn = func(u graph.Vertex, e label.Entry) {
			a0 := tr.Now()
			view.Append(u, e.Hub, e.D)
			appendNs += tr.Now() - a0
		}
	}
	snapshot, neighbors := view.Snapshot, g.Neighbors
	ps := pll.NewSearcher(g.NumVertices())
	for {
		t0 := tr.Now()
		r, pos, ok := mgr.Next(w)
		if !ok {
			return
		}
		d0 := tr.Now()
		if buf != nil {
			buf.Span(idAcquire, t0, d0, uint64(w))
			appendNs = 0
		}
		added, pruned := ps.Run(pll.Seed{Hub: r, Start: r}, view.Label(r), neighbors, snapshot, appendFn)
		if buf != nil {
			d1 := tr.Now()
			buf.Span(idDijkstra, d0, d1, uint64(r), uint64(added), uint64(pruned), uint64(w))
			buf.Span(idAppend, d0, d0+appendNs, uint64(added))
		}
		perWorker[w] += ps.LastWork()
		if cfg.Trace != nil {
			cfg.Trace.AddedPerRoot[pos] = added
			cfg.Trace.PrunedPerRoot[pos] = pruned
			cfg.Trace.WorkPerRoot[pos] = ps.LastWork()
		}
		cfg.Progress.rootDone(added, pruned, ps.LastWork())
	}
}

// workerView resolves worker w's private store view when the store
// keeps per-worker side state (the cluster recording store), else the
// shared store itself.
func workerView(store LabelStore, w, workers int) LabelStore {
	if pws, ok := store.(PerWorkerStore); ok {
		return pws.WorkerView(w, workers)
	}
	return store
}
