package directed

import (
	"parapll/internal/graph"
	"parapll/internal/label"
)

// Index is a directed 2-hop cover: per vertex, a hub-sorted in-label
// list (hubs reaching it) and out-label list (hubs it reaches).
type Index struct {
	in  [][]label.Entry
	out [][]label.Entry
}

// Options configures a directed build.
type Options struct {
	// Order is the computing sequence; nil means degree descending.
	Order []graph.Vertex
}

// Build indexes a directed graph serially: BuildParallel at one thread,
// where the task manager hands out the roots in computing-sequence order.
func Build(g *Digraph, opt Options) *Index {
	return BuildParallel(g, ParallelOptions{Threads: 1, Order: opt.Order})
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
	return label.MergeEntries(x.out[s], x.in[t])
}

// QueryBatch answers many directed (s,t) pairs in parallel (threads <= 0
// means GOMAXPROCS). The index is immutable, so no synchronization is
// needed.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQuery(x.Query, pairs, threads)
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return len(x.in) }

// NumEntries returns the total number of in+out label entries.
func (x *Index) NumEntries() int64 {
	var total int64
	for v := range x.in {
		total += int64(len(x.in[v]) + len(x.out[v]))
	}
	return total
}

// AvgLabelSize returns mean (in+out) entries per vertex.
func (x *Index) AvgLabelSize() float64 {
	if len(x.in) == 0 {
		return 0
	}
	return float64(x.NumEntries()) / float64(len(x.in))
}
