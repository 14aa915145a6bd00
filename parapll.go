// Package parapll is a Go implementation of ParaPLL (Qiu et al., ICPP
// 2018): fast parallel shortest-path distance queries on large weighted
// graphs via Pruned Landmark Labeling.
//
// The workflow has two stages, as in the paper. The indexing stage builds
// a 2-hop-cover label index — serially (BuildSerial), in parallel on one
// machine (Build), or across a cluster of nodes connected by this
// repository's MPI-style transport (RunLocalCluster in one process,
// cmd/parapll-node across processes). The
// querying stage answers exact point-to-point distances from the index in
// microseconds (Index.Query).
//
// Quick start:
//
//	g := parapll.NewGraph(4, []parapll.Edge{
//		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5},
//	})
//	idx := parapll.Build(g, parapll.Options{})   // all cores, dynamic policy
//	dist := idx.Query(0, 3)                      // == 12
//
// The subpackages under internal/ hold the building blocks (graph
// substrate, label stores, task manager, MPI-style transports, dataset
// generators, experiment harness); this package is the supported surface.
package parapll

import (
	"runtime"

	"parapll/internal/cluster"
	"parapll/internal/core"
	"parapll/internal/dynamic"
	"parapll/internal/fileio"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/oracle"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/sssp"
	"parapll/internal/trace"
)

// Re-exported fundamental types. Vertex ids are dense int32s in [0,n);
// distances are uint32 with Inf marking "unreachable".
type (
	// Vertex identifies a vertex.
	Vertex = graph.Vertex
	// Dist is an edge weight or path distance.
	Dist = graph.Dist
	// Edge is one undirected weighted edge.
	Edge = graph.Edge
	// Graph is an immutable weighted undirected graph in CSR form.
	Graph = graph.Graph
	// Index is a finalized 2-hop-cover label index answering exact
	// distance queries.
	Index = label.Index
	// Explain is the cost-attribution record Index.QueryExplain returns:
	// the same answer as Query, plus where the merge's work went.
	Explain = label.Explain
)

// Inf is the distance of unreachable pairs.
const Inf = graph.Inf

// Policy selects the task assignment policy of the parallel indexer.
type Policy = core.Policy

// Assignment policies (paper §4.3, §4.4). Dynamic usually wins; Static is
// the simpler baseline.
const (
	Static  = core.Static
	Dynamic = core.Dynamic
)

// Ordering names a computing-sequence policy for the indexing stage.
type Ordering int

// Available vertex orderings. OrderDegree is the paper's choice.
const (
	// OrderDegree indexes high weighted-degree vertices first, lighter
	// edges counting more, each vertex taken discounting half of its
	// edges from its unpicked neighbours: the paper's degree order made
	// weighted and residual.
	OrderDegree Ordering = iota
	// OrderPsi estimates shortest-path centrality by sampling (costlier
	// to compute than OrderDegree).
	OrderPsi
	// OrderRandom is the ablation control.
	OrderRandom
)

// Options configures index construction.
type Options struct {
	// Threads is the number of parallel workers; <= 0 means all cores.
	Threads int
	// Policy is Static or Dynamic (default Static, the zero value).
	Policy Policy
	// Order selects the computing sequence (default OrderDegree).
	Order Ordering
	// Seed feeds OrderPsi / OrderRandom.
	Seed uint64
	// Engine selects the build algorithm: EnginePerRoot (one pruned
	// Dijkstra per root — the paper's ParaPLL, and the default when
	// empty) or EngineBatched (vertex-centric: a batch of roots
	// propagated as one shared frontier). Honored by Build; the serial,
	// cluster and dynamic builders are pinned to per-root.
	Engine string
	// BatchSize is EngineBatched's roots-per-frontier, clamped to
	// [1, 64]; <= 0 picks the default (8). Ignored by EnginePerRoot.
	BatchSize int
	// Progress, when non-nil, receives live build counters that another
	// goroutine may sample with Snapshot while Build runs.
	Progress *BuildProgress
	// Tracer, when non-nil and enabled, records per-root build spans
	// (task acquire, Pruned Dijkstra, label append) for the Chrome
	// trace-event exporter; see NewTracer. Honored by Build alone: the
	// serial, dynamic and cluster builders ignore it.
	Tracer *Tracer
}

// BuildProgress holds live counters of a running Build; see
// Options.Progress. Its Snapshot method is safe to call concurrently
// with the build.
type BuildProgress = core.Progress

// BuildProgressSnapshot is a point-in-time copy of a BuildProgress,
// with Rate and ETA helpers for progress reporting.
type BuildProgressSnapshot = core.ProgressSnapshot

// Engine names accepted by Options.Engine ("" means per-root).
const (
	EnginePerRoot = core.EnginePerRoot
	EngineBatched = core.EngineBatched
)

// Tracer is a low-overhead span/event recorder. Create one with
// NewTracer, pass it via Options.Tracer (or Server-side sampling), and
// export the recorded timeline as Chrome trace-event JSON with
// WriteJSON — the format chrome://tracing and https://ui.perfetto.dev
// open directly. A disabled tracer costs one atomic check per
// instrumentation site.
type Tracer = trace.Tracer

// NewTracer creates a tracer for process lane pid (the cluster rank, or
// 0 on one machine) whose per-thread ring buffers hold capacity events
// each (0 picks a default). The tracer starts disabled; call Enable.
func NewTracer(pid, capacity int) *Tracer { return trace.New(pid, capacity) }

// MergeTraces merges per-rank trace files (written by parapll-node
// -trace) into one cross-rank timeline at outPath, aligning each
// capture's wall-clock epoch.
func MergeTraces(outPath string, inPaths []string) error {
	return trace.MergeFiles(outPath, inPaths)
}

func computeOrder(g *Graph, o Ordering, seed uint64) []Vertex {
	switch o {
	case OrderPsi:
		samples := 8
		if g.NumVertices() < 8 {
			samples = 1
		}
		return order.PsiSample(g, samples, seed)
	case OrderRandom:
		return order.Random(g, seed)
	default:
		return order.Degree(g)
	}
}

// NewGraph builds a graph with n vertices from an undirected edge list.
// Self-loops are dropped and duplicate edges keep their smallest weight.
func NewGraph(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Build constructs the index in parallel on this machine (the paper's
// intra-node ParaPLL). It panics on an unknown Options.Engine name,
// matching the package's treatment of invalid orders.
func Build(g *Graph, opt Options) *Index {
	idx, _ := BuildWithStats(g, opt)
	return idx
}

// BuildStats is the accounting of one Build: per-worker work, and the
// build-time head the label store kept (Head).
type BuildStats = core.BuildStats

// BuildWithStats is Build plus its accounting.
func BuildWithStats(g *Graph, opt Options) (*Index, *BuildStats) {
	return core.BuildWithStats(g, coreOptions(g, opt))
}

func coreOptions(g *Graph, opt Options) core.Options {
	eng, err := core.EngineByName(opt.Engine, opt.BatchSize)
	if err != nil {
		panic("parapll: " + err.Error())
	}
	return core.Options{
		Threads:  opt.Threads,
		Policy:   opt.Policy,
		Order:    computeOrder(g, opt.Order, opt.Seed),
		Progress: opt.Progress,
		Tracer:   opt.Tracer,
		Engine:   eng,
	}
}

// IndexHeader is what a PIDM file's header says of its index — vertex
// and entry counts, LN, head and mid columns and distance width, through
// the methods of the same names on Index — read without the sections.
type IndexHeader = label.Header

// BuildFile is BuildWithStats that streams the index into a PIDM file at
// path, atomically and durably, instead of returning it: the label store
// finalizes straight into the file, so it and a heap copy of the index
// are never live together. The file holds the bytes SaveIndex would
// write of Build's index; BuildFile returns its header.
func BuildFile(path string, g *Graph, opt Options) (IndexHeader, *BuildStats, error) {
	store := label.NewStore(g.NumVertices())
	stats := core.BuildInto(g, store, coreOptions(g, opt))
	h, err := fileio.SaveLabels(fileio.OS, path, store.NumVertices(), store.List())
	return h, stats, err
}

// BuildSerial constructs the index with the serial weighted PLL — the
// baseline ParaPLL's speedups are measured against.
func BuildSerial(g *Graph, opt Options) *Index {
	return pll.Build(g, pll.Options{Order: computeOrder(g, opt.Order, opt.Seed)})
}

// BuildSerialFile is BuildSerial streamed into a PIDM file at path, as
// BuildFile streams Build.
func BuildSerialFile(path string, g *Graph, opt Options) (IndexHeader, error) {
	lists := pll.Labels(g, pll.Options{Order: computeOrder(g, opt.Order, opt.Seed)})
	return fileio.SaveLabels(fileio.OS, path, len(lists), func(v int) []label.Entry { return lists[v] })
}

// BuildUnweighted constructs a hop-count index, ignoring edge weights: it
// is Build over a copy of g whose every edge weighs 1, so queries return
// the number of edges on a shortest path.
func BuildUnweighted(g *Graph, opt Options) *Index {
	edges := g.Edges()
	for i := range edges {
		edges[i].W = 1
	}
	return Build(NewGraph(g.NumVertices(), edges), opt)
}

// Path returns the vertices of a shortest path from s to t and its
// length, walked over g by idx's exact distances (idx must be an index
// of g): one idx.Query per neighbour probed. It returns ([s], 0) for
// s == t, and (nil, Inf) for a disconnected pair or an idx not of g.
func Path(g *Graph, idx *Index, s, t Vertex) ([]Vertex, Dist) { return graph.Path(g, idx, s, t) }

// DynamicIndex is a mutable index that stays exact under edge
// insertions (InsertEdge) without rebuilding; see BuildDynamic.
type DynamicIndex = dynamic.Index

// BuildDynamic constructs a mutable index for a growing graph: queries
// as usual, plus InsertEdge(u, v, w) repairs the labels incrementally.
// Deletions are not supported.
func BuildDynamic(g *Graph, opt Options) *DynamicIndex {
	return dynamic.Build(g, pll.Options{Order: computeOrder(g, opt.Order, opt.Seed)})
}

// ClusterOptions configures distributed indexing.
type ClusterOptions struct {
	// Options configures each node's intra-node workers.
	Options
	// SyncCount is how many label synchronizations happen across the run
	// (the paper's c; 1 — sync once at the end — is fastest).
	SyncCount int
}

// RunLocalCluster simulates a cluster of the given number of nodes inside
// this process (channel transport) and returns the cluster-wide index.
// Useful for exercising the distributed code path without deployment.
func RunLocalCluster(g *Graph, nodes int, opt ClusterOptions) (*Index, error) {
	if opt.Threads <= 0 {
		// Split the machine's cores across the simulated nodes.
		opt.Threads = (runtime.GOMAXPROCS(0) + nodes - 1) / nodes
	}
	idxs, _, err := cluster.RunLocal(g, nodes, cluster.Options{
		Threads:   opt.Threads,
		Policy:    opt.Policy,
		Order:     computeOrder(g, opt.Order, opt.Seed),
		SyncCount: opt.SyncCount,
	})
	if err != nil {
		return nil, err
	}
	return idxs[0], nil
}

// Dijkstra returns single-source distances — the index-free baseline and
// the ground truth the index is validated against.
func Dijkstra(g *Graph, s Vertex) []Dist { return sssp.Dijkstra(g, s) }

// QueryDirect answers one point-to-point query without an index (Dijkstra
// with early exit) — the slow path the paper's introduction motivates
// replacing.
func QueryDirect(g *Graph, s, t Vertex) Dist { return sssp.Query(g, s, t) }

// SaveGraph / LoadGraph persist graphs (text edge list for ".txt"/
// ".edges", DIMACS for ".gr" on load, binary cache otherwise).
func SaveGraph(path string, g *Graph) error { return fileio.SaveGraph(fileio.OS, path, g) }
func LoadGraph(path string) (*Graph, error) { return fileio.LoadGraph(path) }

// Oracle is the query surface every distance index in this repository
// serves — Index and DynamicIndex both satisfy it. Program against
// Oracle to swap index kinds (or a heap-decoded index for a zero-copy
// mmap one) without touching call sites.
type Oracle = oracle.Oracle

// FormatMmap names the index file format, PIDM: LoadIndex opens it
// zero-copy in O(1), with the label arrays aliasing the page cache
// instead of being decoded onto the heap.
const FormatMmap = label.FormatMmap

// SaveIndex / LoadIndex persist finalized indexes as PIDM files under
// any extension; LoadIndex maps them zero-copy. The caller owns Close:
// call it once nothing reads the index, and an index nobody closes stays
// mapped until the process exits.
func SaveIndex(path string, x *Index) error { return fileio.SaveIndex(fileio.OS, path, x) }
func LoadIndex(path string) (*Index, error) { return fileio.LoadIndex(path) }

// GenerateDataset synthesizes one of the paper's Table-2 datasets by name
// (e.g. "Skitter") at the given scale in (0,1]. The generated graph
// matches the original's size and degree shape; see internal/gen for the
// substitution rationale.
func GenerateDataset(name string, scale float64) (*Graph, error) {
	rec, err := gen.FindRecipe(name)
	if err != nil {
		return nil, err
	}
	return rec.Generate(scale), nil
}

// DatasetNames lists the Table-2 dataset names in the paper's order.
func DatasetNames() []string {
	out := make([]string, len(gen.Datasets))
	for i, rec := range gen.Datasets {
		out[i] = rec.Name
	}
	return out
}
