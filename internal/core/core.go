// Package core implements ParaPLL's intra-node parallel indexing — the
// paper's primary contribution. A task manager hands root vertices to p
// worker goroutines under a static (round-robin, Figure 2) or dynamic
// (competing queue, Figure 3 / Algorithm 2) assignment policy; each worker
// runs Pruned Dijkstra searches against a shared label store.
//
// The shared store is the concurrency heart: label reads (the prune query
// on every settled vertex) are lock-free snapshots, and writes serialize
// on a per-vertex mutex — the Go rendition of Algorithm 2's "semaphore
// with lock/unlock ... to eliminate race conditions". A worker may miss
// labels that other workers are writing concurrently; by the paper's
// Proposition 1 that only weakens pruning (extra redundant labels), never
// query correctness, because every written label is the length of a real
// path and the QUERY minimum ignores dominated entries.
package core

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
	"parapll/internal/task"
	"parapll/internal/trace"
)

// Policy selects the task assignment policy.
type Policy int

// Assignment policies (paper §4.3 and §4.4).
const (
	Static Policy = iota
	Dynamic
)

// String returns the policy name as used in the paper's tables.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// LabelStore abstracts the shared label set workers read and write. The
// build's own is the lock-free-read label.Store; the cluster's recording
// store wraps one.
type LabelStore interface {
	// Label is L(v) as the hub side of a search reads it.
	Label(v graph.Vertex) label.Label
	// Snapshot is L(v) as a prune test reads it, beside the head row the
	// search's label.Probe reads itself: the entries outside the head.
	Snapshot(v graph.Vertex) label.List
	Append(v, hub graph.Vertex, d graph.Dist)
}

// headStore is a LabelStore that keeps the first roots' labels as dense
// columns (label.Store.UseHead). BuildInto hands it the order, and tells
// it where in the order each root is before a worker searches it;
// BuildStats reports its head and its entries kept whole.
type headStore interface {
	UseHead(ord []graph.Vertex)
	BeginRoot(pos int)
	Head() (k int, fill float64)
	Wide() int64
}

// headManager is the task manager of a build into a headStore: it calls
// BeginRoot for every root it hands out.
type headManager struct {
	task.Manager
	store headStore
}

// Next implements task.Manager.
func (m headManager) Next(w int) (graph.Vertex, int, bool) {
	r, pos, ok := m.Manager.Next(w)
	if ok {
		m.store.BeginRoot(pos)
	}
	return r, pos, ok
}

// PerWorkerStore is an optional LabelStore extension. A store that
// implements it is asked, once per worker goroutine, for a view private
// to that worker; all of the worker's reads and appends then go through
// the view. This is the seam that lets a wrapping store keep per-worker
// side state (the cluster package's pending-update lists) with no
// cross-worker synchronization on the append hot path. WorkerView is
// called with 0 <= w < workers before worker w processes any root; it
// must be safe to call concurrently for distinct w.
type PerWorkerStore interface {
	LabelStore
	WorkerView(w, workers int) LabelStore
}

// Options configures a parallel build.
type Options struct {
	// Threads is the number of worker goroutines; <= 0 means GOMAXPROCS.
	Threads int
	// Policy is the assignment policy; Static is the zero value.
	Policy Policy
	// Order is the computing sequence; nil means graph.DegreeOrder.
	Order []graph.Vertex
	// Trace, when non-nil, receives per-sequence-position label counts
	// (Figure 6). Safe because each position is claimed by exactly one
	// worker.
	Trace *pll.Trace
	// Progress, when non-nil, receives live build counters (roots done,
	// labels added, work performed) that other goroutines may sample
	// concurrently. Updates cost a few atomic adds per completed root —
	// off the per-edge hot path (see BenchmarkBuildProgressOverhead).
	Progress *Progress
	// Tracer, when non-nil and enabled, records per-root spans (task
	// acquire, Pruned Dijkstra, label append) on per-worker lanes for
	// the timeline exporter. A nil or disabled tracer costs one check
	// per worker at startup (see trace.BenchmarkEmitDisabled).
	Tracer *trace.Tracer
	// Engine selects the build algorithm behind the task-manager seam;
	// nil means PerRoot (the paper's one-pruned-Dijkstra-per-root
	// engine). See Engine for the contract and Batched for the
	// vertex-centric alternative.
	Engine Engine
}

// Progress is a set of live build counters. A builder goroutine updates
// it once per completed root; monitoring goroutines (a progress logger,
// a /metrics endpoint) read it concurrently via Snapshot. The zero
// value is ready to use, and one Progress must not be shared between
// concurrent builds.
type Progress struct {
	totalRoots  atomic.Int64
	rootsDone   atomic.Int64
	labelsAdded atomic.Int64
	pruned      atomic.Int64
	workOps     atomic.Int64
}

// ProgressSnapshot is a point-in-time copy of a build's progress.
type ProgressSnapshot struct {
	// TotalRoots is the length of the computing sequence (0 until the
	// build has started).
	TotalRoots int64
	// RootsDone is how many Pruned Dijkstra searches have completed.
	RootsDone int64
	// LabelsAdded is how many labels those searches appended.
	LabelsAdded int64
	// Pruned is how many settled vertices were pruned.
	Pruned int64
	// WorkOps is the machine-independent work performed so far (heap
	// pops + relaxations + label scans).
	WorkOps int64
}

// Snapshot reads the current counters. Individual fields are exact;
// the set may tear relative to a root completing concurrently.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		TotalRoots:  p.totalRoots.Load(),
		RootsDone:   p.rootsDone.Load(),
		LabelsAdded: p.labelsAdded.Load(),
		Pruned:      p.pruned.Load(),
		WorkOps:     p.workOps.Load(),
	}
}

// Rate returns the average root-completion rate (roots per second)
// over the elapsed build time; 0 before anything completes.
func (s ProgressSnapshot) Rate(elapsed time.Duration) float64 {
	if elapsed <= 0 || s.RootsDone == 0 {
		return 0
	}
	return float64(s.RootsDone) / elapsed.Seconds()
}

// ETA extrapolates the remaining build time from the average rate. ok
// is false while there is no rate or no known total yet (e.g. a cluster
// build that has not revealed every segment).
func (s ProgressSnapshot) ETA(elapsed time.Duration) (eta time.Duration, ok bool) {
	rate := s.Rate(elapsed)
	if rate == 0 || s.TotalRoots == 0 || s.RootsDone > s.TotalRoots {
		return 0, false
	}
	remaining := float64(s.TotalRoots-s.RootsDone) / rate
	return time.Duration(remaining * float64(time.Second)), true
}

// Log samples p every 2s and prints a one-line status to standard
// error — roots done, labels, the average root rate since start and an
// ETA — until the returned stop function is called. Quiet for fast
// builds: nothing prints before the first tick.
func (p *Progress) Log(start time.Time) (stop func()) {
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
				s := p.Snapshot()
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

// rootDone records one completed Pruned Dijkstra. p may be nil.
func (p *Progress) rootDone(added, pruned, work int64) {
	if p == nil {
		return
	}
	p.rootsDone.Add(1)
	p.labelsAdded.Add(added)
	p.pruned.Add(pruned)
	p.workOps.Add(work)
}

// AddRoots grows the expected-roots total; the cluster builder calls it
// per segment because a node's sequence is revealed segment by segment.
func (p *Progress) AddRoots(n int64) { p.totalRoots.Add(n) }

// Build indexes g in parallel and returns the finalized 2-hop index.
func Build(g *graph.Graph, opt Options) *label.Index {
	idx, _ := BuildWithStats(g, opt)
	return idx
}

// BuildStats reports machine-independent accounting of one parallel
// build. On hosts with fewer cores than workers, wall-clock speedup is
// meaningless; ProjectedSpeedup — total work over the busiest worker's
// work — is the idealized speedup the assignment policy achieves with
// perfect hardware, which is what Tables 3–4's load-balance comparison is
// actually about.
type BuildStats struct {
	// PerWorkerWork[w] is the work (heap pops + relaxations + label
	// scans) worker w performed.
	PerWorkerWork []int64

	head headStore // the store, when it kept a build-time head
}

// Head returns the number of columns the build-time head opened and the
// share of their cells that hold an entry: (0, 0) for a store without one.
func (s *BuildStats) Head() (k int, fill float64) {
	if s.head == nil {
		return 0, 0
	}
	return s.head.Head()
}

// Wide returns the number of label entries the store kept whole, outside
// a list word (label.Store.Wide): 0 for any store that keeps no head.
func (s *BuildStats) Wide() int64 {
	if s.head == nil {
		return 0
	}
	return s.head.Wide()
}

// TotalWork sums the per-worker work.
func (s *BuildStats) TotalWork() int64 {
	var sum int64
	for _, w := range s.PerWorkerWork {
		sum += w
	}
	return sum
}

// ProjectedSpeedup returns TotalWork / max-worker-work: the speedup this
// assignment would reach on hardware with one real core per worker.
func (s *BuildStats) ProjectedSpeedup() float64 {
	var max int64
	for _, w := range s.PerWorkerWork {
		if w > max {
			max = w
		}
	}
	if max == 0 {
		return 1
	}
	return float64(s.TotalWork()) / float64(max)
}

// BuildWithStats is Build plus per-worker work accounting.
func BuildWithStats(g *graph.Graph, opt Options) (*label.Index, *BuildStats) {
	store := label.NewStore(g.NumVertices())
	stats := BuildInto(g, store, opt)
	return label.NewIndex(store), stats
}

// BuildInto runs the parallel indexing into the provided store without
// finalizing it, returning the work accounting. A store that can keep a
// build-time head (label.Store) gets one for the order.
func BuildInto(g *graph.Graph, store LabelStore, opt Options) *BuildStats {
	ord := opt.Order
	if ord == nil {
		ord = graph.DegreeOrder(g)
	} else if err := graph.CheckOrder(ord, g.NumVertices()); err != nil {
		panic("core: Order must be a permutation of the vertices: " + err.Error())
	}
	mgr := newManager(ord, &opt)
	hs, _ := store.(headStore)
	if hs != nil {
		hs.UseHead(ord)
		mgr = headManager{mgr, hs}
	}
	if opt.Trace != nil {
		opt.Trace.AddedPerRoot = make([]int64, len(ord))
		opt.Trace.PrunedPerRoot = make([]int64, len(ord))
		opt.Trace.WorkPerRoot = make([]int64, len(ord))
	}
	if opt.Progress != nil {
		opt.Progress.totalRoots.Store(int64(len(ord)))
	}
	eng := opt.Engine
	if eng == nil {
		eng = PerRoot{}
	}
	return &BuildStats{PerWorkerWork: eng.Run(g, mgr, store, RunConfig{
		Trace:    opt.Trace,
		Progress: opt.Progress,
		Tracer:   opt.Tracer,
	}), head: hs}
}

func newManager(ord []graph.Vertex, opt *Options) task.Manager {
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	opt.Threads = threads
	switch opt.Policy {
	case Dynamic:
		return task.NewDynamic(ord, threads)
	default:
		return task.NewStatic(ord, threads)
	}
}

// RunConfig bundles an Engine run's optional instrumentation so call
// sites name what they set. The zero value is a plain uninstrumented run.
type RunConfig struct {
	// Trace receives per-sequence-position label counts (Figure 6); its
	// slices must be at least as long as the largest sequence position
	// the manager hands out. May be nil.
	Trace *pll.Trace
	// Progress, when non-nil, is updated once per completed root.
	Progress *Progress
	// Tracer, when non-nil and enabled, records timeline spans: one
	// "task acquire" and one "pruned dijkstra" span per root on the
	// worker's lane, plus a "label append" span aggregating the root's
	// append-callback time (anchored at the Dijkstra start so it nests).
	Tracer *trace.Tracer
	// Phase labels the workers' pprof goroutine profiles and trace
	// lanes ("build" when empty; the cluster path passes per-segment
	// phases) so CPU profiles segment by build phase.
	Phase string
}
