package main

import (
	"fmt"
	"math/rand"

	"parapll"
)

// Every input the program sees is drawn here from -seed. The graphs
// themselves are fixed datasets (parapll-gen is deterministic per name
// and scale): a build time that moved because the graph changed would
// say nothing about the code.

// oracle answers distance checks from Dijkstra rows computed on the
// benchmark's own copy of the graph. Query pairs draw their first
// endpoint from a seeded set of source vertices so that every answer —
// tens of thousands per run — is an O(1) table lookup, not a Dijkstra
// on the timed path's CPU.
type oracle struct {
	n       int
	sources []parapll.Vertex
	rows    [][]parapll.Dist // rows[i] = Dijkstra(g, sources[i])
}

// newOracle picks k distinct seeded sources and runs Dijkstra from each.
func newOracle(g *parapll.Graph, k int, rng *rand.Rand) *oracle {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	o := &oracle{n: n}
	for _, v := range rng.Perm(n)[:k] {
		s := parapll.Vertex(v)
		o.sources = append(o.sources, s)
		o.rows = append(o.rows, parapll.Dijkstra(g, s))
	}
	return o
}

// on recomputes the rows over the same sources on another graph with
// the same vertices (the graph after acknowledged inserts).
func (o *oracle) on(g *parapll.Graph) *oracle {
	out := &oracle{n: o.n, sources: o.sources}
	for _, s := range o.sources {
		out.rows = append(out.rows, parapll.Dijkstra(g, s))
	}
	return out
}

// pair is one query: src indexes oracle.sources, t is any vertex.
type pair struct {
	src int
	t   parapll.Vertex
}

func (o *oracle) s(p pair) parapll.Vertex { return o.sources[p.src] }

// want returns the wire encoding of the true distance (-1 unreachable).
func (o *oracle) want(p pair) int64 { return wireDist(o.rows[p.src][p.t]) }

// check reports whether got is the true distance of p.
func (o *oracle) check(p pair, got int64) bool { return got == o.want(p) }

func wireDist(d parapll.Dist) int64 {
	if d == parapll.Inf {
		return -1
	}
	return int64(d)
}

// uniformPairs draws count pairs: a uniform source of the oracle's set
// and a uniform target. With 512 sources the working set is 512·n
// unordered pairs (1.9 M on the p2p graph) against a 65 536-entry
// cache, so this is the miss path.
func uniformPairs(o *oracle, count int, rng *rand.Rand) []pair {
	out := make([]pair, count)
	for i := range out {
		out[i] = pair{src: rng.Intn(len(o.sources)), t: parapll.Vertex(rng.Intn(o.n))}
	}
	return out
}

// hotSet is a fixed set of distinct-ish pairs requested with Zipf(1.1)
// popularity: a working set that fits the server's cache.
type hotSet struct {
	pairs []pair
	zipf  *rand.Zipf
}

func newHotSet(o *oracle, size int, rng *rand.Rand) *hotSet {
	return &hotSet{pairs: uniformPairs(o, size, rng), zipf: rand.NewZipf(rng, 1.1, 1, uint64(size-1))}
}

// draw returns count requests over the set.
func (h *hotSet) draw(count int) []pair {
	out := make([]pair, count)
	for i := range out {
		out[i] = h.pairs[h.zipf.Uint64()]
	}
	return out
}

// insertStream draws count new edges {u,v,w}: distinct endpoints, not
// already adjacent in g, weight copied from a random existing edge so
// the weight distribution stays the dataset's. All of them pass
// dynamic.CheckInsert, so the program does identical work every run of
// a seed and no operation is expected to fail.
func insertStream(g *parapll.Graph, count int, rng *rand.Rand) ([]parapll.Edge, error) {
	n := g.NumVertices()
	base := g.Edges()
	if n < 3 || len(base) == 0 {
		return nil, fmt.Errorf("graph too small for an insert stream (n=%d, m=%d)", n, len(base))
	}
	seen := make(map[[2]parapll.Vertex]bool, count)
	out := make([]parapll.Edge, 0, count)
	for len(out) < count {
		u, v := parapll.Vertex(rng.Intn(n)), parapll.Vertex(rng.Intn(n))
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]parapll.Vertex{u, v}] {
			continue
		}
		if _, adjacent := g.HasEdge(u, v); adjacent {
			continue
		}
		seen[[2]parapll.Vertex{u, v}] = true
		out = append(out, parapll.Edge{U: u, V: v, W: base[rng.Intn(len(base))].W})
	}
	return out, nil
}

// withEdges returns g plus the extra edges, for checking answers after
// acknowledged inserts.
func withEdges(g *parapll.Graph, extra []parapll.Edge) *parapll.Graph {
	return parapll.NewGraph(g.NumVertices(), append(g.Edges(), extra...))
}
