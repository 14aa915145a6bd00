package dynamic

// Error-path and long-sequence invariant tests for InsertEdge, written
// against the contracts the living-graph pipeline leans on: rejected
// inserts wrap ErrInvalid and leave the index untouched (so a record
// that reaches the WAL always replays cleanly), and a frozen ToIndex
// snapshot only ever overestimates as the live index keeps absorbing
// edges (the superset invariant compaction's crash windows depend on).

import (
	"errors"
	"math/rand"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

func TestInsertErrorPathsWrapErrInvalid(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	x := Build(g, pll.Options{})
	before := x.NumEntries()
	d02 := x.Query(0, 2)

	cases := []struct {
		name string
		u, v graph.Vertex
		w    graph.Dist
	}{
		{"self loop", 1, 1, 5},
		{"u out of range", 4, 0, 5},
		{"v out of range", 0, 4, 5},
		{"u negative", -1, 0, 5},
		{"v negative", 0, -3, 5},
		{"zero weight", 0, 2, 0},
		{"infinite weight", 0, 2, graph.Inf},
	}
	for _, c := range cases {
		err := x.InsertEdge(c.u, c.v, c.w)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", c.name, err)
		}
		// CheckInsert must agree with InsertEdge case by case.
		if cerr := x.CheckInsert(c.u, c.v, c.w); cerr == nil {
			t.Errorf("%s: CheckInsert accepted what InsertEdge rejected", c.name)
		}
	}
	// A rejected insert mutates nothing: no overlay edge, no labels.
	if after := x.NumEntries(); after != before {
		t.Fatalf("rejected inserts changed entry count: %d -> %d", before, after)
	}
	if got := x.Query(0, 2); got != d02 {
		t.Fatalf("rejected inserts changed a distance: %d -> %d", d02, got)
	}
	// And a valid insert still goes through afterwards.
	if err := x.InsertEdge(0, 2, 1); err != nil {
		t.Fatalf("valid insert after rejections: %v", err)
	}
	if got := x.Query(0, 2); got != 1 {
		t.Fatalf("query(0,2) = %d after inserting weight-1 edge", got)
	}
}

// TestLongSequenceSupersetInvariant grows a graph through a long insert
// sequence and pins down the two monotonicity properties the compaction
// crash windows rely on: live distances never increase as edges arrive,
// and a ToIndex snapshot frozen mid-sequence keeps answering with the
// exact distances of ITS graph — i.e. a superset-of-paths overestimate
// of every later graph, never an underestimate.
func TestLongSequenceSupersetInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(903))
	const n = 40
	cur := randomGraph(r, n, 30)
	x := Build(cur, pll.Options{})

	type probe struct{ s, t graph.Vertex }
	probes := make([]probe, 25)
	last := make([]graph.Dist, len(probes))
	for i := range probes {
		probes[i] = probe{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
		last[i] = x.Query(probes[i].s, probes[i].t)
	}

	const total = 150
	snapAt := total / 2
	var snap interface {
		Query(s, t graph.Vertex) graph.Dist
	}
	var snapGraph *graph.Graph
	for ins := 0; ins < total; ins++ {
		if ins == snapAt {
			snap = x.ToIndex()
			snapGraph = cur
		}
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		w := graph.Dist(1 + r.Intn(12))
		if err := x.InsertEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		cur = withEdge(cur, graph.Edge{U: u, V: v, W: w})
		for i, p := range probes {
			got := x.Query(p.s, p.t)
			if got > last[i] {
				t.Fatalf("after insert %d: d(%d,%d) regressed %d -> %d",
					ins, p.s, p.t, last[i], got)
			}
			last[i] = got
		}
	}
	// The live index ends exact on the final graph.
	checkAllPairs(t, cur, x)
	// The frozen snapshot is exact for its own graph and, pair by pair,
	// an overestimate (>=) of the final graph: stale but never wrong in
	// the dangerous direction.
	for s := graph.Vertex(0); int(s) < n; s++ {
		wantThen := sssp.Dijkstra(snapGraph, s)
		wantNow := sssp.Dijkstra(cur, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			got := snap.Query(s, u)
			if got != wantThen[u] {
				t.Fatalf("snapshot drifted: d(%d,%d) = %d, want %d", s, u, got, wantThen[u])
			}
			if got < wantNow[u] {
				t.Fatalf("snapshot underestimates final graph: d(%d,%d) = %d < %d",
					s, u, got, wantNow[u])
			}
		}
	}
}
