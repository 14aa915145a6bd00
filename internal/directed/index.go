package directed

import (
	"runtime"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// Index is a directed 2-hop cover: per vertex, a hub-sorted in-label
// run (hubs reaching it) and out-label run (hubs it reaches), each side
// one label.Index so a query is the same merge kernel the undirected
// index runs. Both sides are Flat: a query meets an out-label with an
// in-label, and a dense head only lines up the rows of one index.
type Index struct {
	in  *label.Index
	out *label.Index
}

// Options configures a directed build.
type Options struct {
	// Order is the computing sequence; nil means degree descending.
	Order []graph.Vertex
}

// Build indexes a directed graph serially, root by root in the
// computing sequence, against the in/out labels built so far. Panics
// unless the order is a permutation of the vertices.
func Build(g *Digraph, opt Options) *Index {
	n := g.NumVertices()
	ord := opt.Order
	if ord == nil {
		ord = DegreeOrder(g)
	}
	if err := graph.CheckOrder(ord, n); err != nil {
		panic("directed: Order must be a permutation of the vertices: " + err.Error())
	}
	in, out := make([][]label.Entry, n), make([][]label.Entry, n)
	getIn := func(u graph.Vertex) []label.Entry { return in[u] }
	getOut := func(u graph.Vertex) []label.Entry { return out[u] }
	addIn := func(u, _ graph.Vertex, e label.Entry) { in[u] = append(in[u], e) }
	addOut := func(u, _ graph.Vertex, e label.Entry) { out[u] = append(out[u], e) }
	ps := pll.NewSearcher(n)
	for _, r := range ord {
		seed := pll.Seed{Hub: r, Start: r}
		// Forward over out-arcs: r→u is covered when some hub sits in
		// Lout(r) ∩ Lin(u); survivors get (r, d(r→u)) in Lin(u).
		ps.Run(seed, out[r], g.Out, getIn, addIn)
		// Backward over in-arcs: u→r is covered via Lout(u) ∩ Lin(r);
		// survivors get (r, d(u→r)) in Lout(u).
		ps.Run(seed, in[r], g.In, getOut, addOut)
	}
	// Finalizing hub-sorts each list for the merge-join query.
	return &Index{in: label.NewIndexFromLists(in).Flat(), out: label.NewIndexFromLists(out).Flat()}
}

// Query returns the exact directed distance d(s→t), graph.Inf when t is
// unreachable from s. Note Query(s,t) and Query(t,s) generally differ.
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	d, _ := x.QueryWithHub(s, t)
	return d
}

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum; hub is -1 when t is unreachable from s, and (0, s) is
// returned for s == t.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	if s == t {
		return 0, s
	}
	// Hubs s reaches, met with hubs reaching t.
	oh, od := x.out.Label(s, nil, nil)
	ih, id := x.in.Label(t, nil, nil)
	d, hub := label.MergeRuns(oh, od, ih, id)
	runtime.KeepAlive(x) // Label's contract, though both sides are heap-backed
	return d, hub
}

// QueryBatch answers many directed (s,t) pairs in parallel (threads <= 0
// means GOMAXPROCS). The index is immutable, so no synchronization is
// needed.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQuery(x.Query, pairs, threads)
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return x.in.NumVertices() }

// NumEntries returns the total number of in+out label entries.
func (x *Index) NumEntries() int64 { return x.in.NumEntries() + x.out.NumEntries() }

// AvgLabelSize returns mean (in+out) entries per vertex.
func (x *Index) AvgLabelSize() float64 {
	n := x.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(x.NumEntries()) / float64(n)
}
