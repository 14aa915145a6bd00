package directed

import (
	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// ParallelOptions configures a parallel directed build.
type ParallelOptions struct {
	// Threads is the number of workers; <= 0 means GOMAXPROCS.
	Threads int
	// Policy is the task assignment policy (core.Static or core.Dynamic).
	Policy core.Policy
	// Order is the computing sequence; nil means degree descending.
	Order []graph.Vertex
}

// BuildParallel is the ParaPLL treatment of the directed index: workers
// claim roots from the task manager and run the forward+backward pruned
// Dijkstra pair against shared concurrent in/out label stores (the same
// lock-free-read, per-vertex-append stores as the undirected core).
// Correctness under stale snapshots follows the same Proposition 1
// argument: both label sets only ever hold real path lengths.
func BuildParallel(g *Digraph, opt ParallelOptions) *Index {
	n := g.NumVertices()
	ord := opt.Order
	if ord == nil {
		ord = DegreeOrder(g)
	}
	in, out := label.NewStore(n), label.NewStore(n)
	addIn := func(u, _ graph.Vertex, e label.Entry) { in.Append(u, e.Hub, e.D) }
	addOut := func(u, _ graph.Vertex, e label.Entry) { out.Append(u, e.Hub, e.D) }
	core.RunRoots(n, ord, opt.Threads, opt.Policy, func(int) func(graph.Vertex) {
		ps := pll.NewSearcher(n)
		return func(r graph.Vertex) {
			seed := pll.Seed{Hub: r, Start: r}
			// Forward over out-arcs: r→u is covered when some hub sits in
			// Lout(r) ∩ Lin(u); survivors get (r, d(r→u)) in Lin(u).
			ps.Run(seed, out.Snapshot(r), g.Out, in.Snapshot, addIn)
			// Backward over in-arcs: u→r is covered via Lout(u) ∩ Lin(r);
			// survivors get (r, d(u→r)) in Lout(u).
			ps.Run(seed, in.Snapshot(r), g.In, out.Snapshot, addOut)
		}
	})

	// Finalizing hub-sorts each list for the merge-join query
	// (concurrent workers append out of rank order).
	return &Index{in: label.NewIndex(in).Flat(), out: label.NewIndex(out).Flat()}
}
