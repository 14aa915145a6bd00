package dynamic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// unionLabel is L(v) the slow way: v's base label in a map, its delta
// run written over it, sorted. On the way it checks that every run entry
// for a hub the base label holds is strictly below the base entry.
func unionLabel(t *testing.T, x *Index, v graph.Vertex) ([]graph.Vertex, []graph.Dist) {
	t.Helper()
	hubs, dists := x.base.Label(v, nil, nil)
	m := make(map[graph.Vertex]graph.Dist, len(hubs))
	for i, h := range hubs {
		m[h] = dists[i]
	}
	r := x.delta[v].Load()
	for i, h := range r.hubs {
		if d, ok := m[h]; ok && r.dists[i] >= d {
			t.Fatalf("L(%d): delta entry (%d, %d) does not shadow base entry %d", v, h, r.dists[i], d)
		}
		m[h] = r.dists[i]
	}
	hubs, dists = hubs[:0], dists[:0]
	for h := range m {
		hubs = append(hubs, h)
	}
	slices.Sort(hubs)
	for _, h := range hubs {
		dists = append(dists, m[h])
	}
	return hubs, dists
}

// scaled returns g with every weight multiplied by factor.
func scaled(g *graph.Graph, factor graph.Dist) *graph.Graph {
	edges := g.Edges()
	for i := range edges {
		edges[i].W *= factor
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

// TestDeltaTermsMatchOneMerge: the four terms of a query — the base's
// tiered kernel, the merge of the two delta runs and the two cross terms
// — answer as one merge over the two union labels, distance and meeting
// hub, for pairs with no delta, with a delta on one side and on both;
// Query answers as Dijkstra; NumEntries counts the union labels. The
// bases come at each distance width, each with a head, a bitmap tier and
// tails, and grow by no insert, one, and forty more.
func TestDeltaTermsMatchOneMerge(t *testing.T) {
	g := gen.ChungLu(300, 900, 2.2, 57)
	for _, tc := range []struct {
		scale graph.Dist
		width int
	}{{1, 1}, {300, 2}, {100000, 4}} {
		r := rand.New(rand.NewSource(int64(tc.scale)))
		cur := scaled(g, tc.scale)
		x := Build(cur, pll.Options{})
		n := x.NumVertices()
		k, hd := x.base.Head()
		k2, md := x.base.Mid()
		tail := float64(x.base.NumEntries()) - hd*float64(n*k) - md*float64(n*k2)
		if x.base.DistBytes() != tc.width || k == 0 || k2 == 0 || math.Round(tail) < 1 {
			t.Fatalf("scale %d: %d-byte base, K=%d K2=%d, %.0f tail entries; want %d bytes and all three tiers",
				tc.scale, x.base.DistBytes(), k, k2, tail, tc.width)
		}
		sides := map[int]int{}
		for _, inserts := range []int{0, 1, 40} {
			for i := 0; i < inserts; {
				u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
				if u == v {
					continue
				}
				w := graph.Dist(1+r.Intn(8)) * tc.scale
				if err := x.InsertEdge(u, v, w); err != nil {
					t.Fatal(err)
				}
				cur = withEdge(cur, graph.Edge{U: u, V: v, W: w})
				i++
			}
			hubs := make([][]graph.Vertex, n)
			dists := make([][]graph.Dist, n)
			for v := range hubs {
				hubs[v], dists[v] = unionLabel(t, x, graph.Vertex(v))
			}
			for s := graph.Vertex(0); int(s) < n; s += 3 {
				want := sssp.Dijkstra(cur, s)
				for u := graph.Vertex(0); int(u) < n; u++ {
					if got := x.Query(s, u); got != want[u] {
						t.Fatalf("scale %d, +%d inserts: Query(%d,%d) = %d, Dijkstra %d", tc.scale, inserts, s, u, got, want[u])
					}
					if s == u {
						continue
					}
					sides[min(len(x.delta[s].Load().hubs), 1)+min(len(x.delta[u].Load().hubs), 1)]++
					wd, wh := label.MergeRuns(hubs[s], dists[s], hubs[u], dists[u])
					if d, h := x.QueryWithHub(s, u); d != wd || h != wh {
						t.Fatalf("scale %d, +%d inserts: QueryWithHub(%d,%d) = (%d,%d), one merge of the union labels (%d,%d)",
							tc.scale, inserts, s, u, d, h, wd, wh)
					}
				}
			}
			if got, want := x.NumEntries(), x.ToIndex().NumEntries(); got != want {
				t.Fatalf("scale %d, +%d inserts: NumEntries = %d, ToIndex holds %d", tc.scale, inserts, got, want)
			}
		}
		if sides[0] == 0 || sides[1] == 0 || sides[2] == 0 {
			t.Fatalf("scale %d: pairs by sides with a delta %v; want some with none, one and two", tc.scale, sides)
		}
	}
}
