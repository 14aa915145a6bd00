package label_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/sssp"
)

// refQuery is QUERY(s,t,L) the plain way, over the two whole labels as
// Label returns them: a two-pointer merge with AddDist that keeps the
// first — smallest — hub achieving the minimum. It knows nothing of
// heads and tails.
func refQuery(x *label.Index, s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	if s == t {
		return 0, s
	}
	sh, sd := x.Label(s, nil, nil)
	th, td := x.Label(t, nil, nil)
	best, hub := graph.Inf, graph.Vertex(-1)
	for i, j := 0, 0; i < len(sh) && j < len(th); {
		switch {
		case sh[i] < th[j]:
			i++
		case sh[i] > th[j]:
			j++
		default:
			if d := graph.AddDist(sd[i], td[j]); d < best {
				best, hub = d, sh[i]
			}
			i++
			j++
		}
	}
	return best, hub
}

// checkAgainstReference asserts that every query shape of x, and of the
// same labels with every entry in the tail, answers every pair as
// refQuery does, and as Dijkstra on g does when there is a graph; and
// that x survives a PIDM file and Open with its labels, its counts, its
// tiers and its answers. Past 200 vertices it takes every seventh
// source.
func checkAgainstReference(t *testing.T, name string, x *label.Index, g *graph.Graph) {
	t.Helper()
	n := x.NumVertices()
	var pairs [][2]graph.Vertex
	var want []graph.Dist
	var wantHub []graph.Vertex
	var entries int64
	for s := 0; s < n; s++ {
		entries += int64(x.LabelSize(graph.Vertex(s)))
		if n > 200 && s%7 != 0 {
			continue
		}
		var exact []graph.Dist
		if g != nil {
			exact = sssp.Dijkstra(g, graph.Vertex(s))
		}
		for u := 0; u < n; u++ {
			d, hub := refQuery(x, graph.Vertex(s), graph.Vertex(u))
			if exact != nil && d != exact[u] {
				t.Fatalf("%s: labels say d(%d,%d) = %d, Dijkstra %d", name, s, u, d, exact[u])
			}
			pairs = append(pairs, [2]graph.Vertex{graph.Vertex(s), graph.Vertex(u)})
			want, wantHub = append(want, d), append(wantHub, hub)
		}
	}
	if x.NumEntries() != entries {
		t.Fatalf("%s: NumEntries = %d, the labels hold %d", name, x.NumEntries(), entries)
	}

	opened := roundTrip(t, name, x)
	for _, side := range []struct {
		name string
		x    *label.Index
	}{{"tiered", x}, {"flat", x.Flat()}, {"reopened", opened}} {
		k, _ := side.x.Head()
		if k2, _ := side.x.Mid(); side.name == "flat" && k+k2 != 0 {
			t.Fatalf("%s: Flat left %d head and %d mid columns", name, k, k2)
		}
		if !side.x.Equal(x) || side.x.NumEntries() != entries {
			t.Fatalf("%s/%s: not the labels it was made from", name, side.name)
		}
		for i, p := range pairs {
			if d := side.x.Query(p[0], p[1]); d != want[i] {
				t.Fatalf("%s/%s: Query%v = %d, want %d", name, side.name, p, d, want[i])
			}
			if d, hub := side.x.QueryWithHub(p[0], p[1]); d != want[i] || hub != wantHub[i] {
				t.Fatalf("%s/%s: QueryWithHub%v = (%d,%d), want (%d,%d)", name, side.name, p, d, hub, want[i], wantHub[i])
			}
			if ex := side.x.QueryExplain(p[0], p[1]); ex.Dist != want[i] || ex.Hub != wantHub[i] {
				t.Fatalf("%s/%s: QueryExplain%v = (%d,%d), want (%d,%d)", name, side.name, p, ex.Dist, ex.Hub, want[i], wantHub[i])
			}
		}
		for _, threads := range []int{1, 2, 8} {
			for i, d := range side.x.QueryBatch(pairs, threads) {
				if d != want[i] {
					t.Fatalf("%s/%s: QueryBatch(%d threads)%v = %d, want %d", name, side.name, threads, pairs[i], d, want[i])
				}
			}
		}
	}
}

// roundTrip writes x to a PIDM file and returns it opened, verified.
func roundTrip(t *testing.T, name string, x *label.Index) *label.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := x.WriteMmap(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := label.Open(path)
	if err != nil {
		t.Fatalf("%s: Open: %v", name, err)
	}
	t.Cleanup(func() { opened.Close() })
	if err := opened.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", name, err)
	}
	if got, want := tiersOf(opened), tiersOf(x); got != want {
		t.Fatalf("%s: %s went through a file and came back %s", name, want, got)
	}
	return opened
}

// tiersOf describes an index's two column tiers and its distance width.
func tiersOf(x *label.Index) string {
	k, hd := x.Head()
	k2, md := x.Mid()
	return fmt.Sprintf("K=%d density %g, K2=%d density %g, %d-byte distances", k, hd, k2, md, x.DistBytes())
}

// scaled returns g with every weight multiplied by factor.
func scaled(g *graph.Graph, factor graph.Dist) *graph.Graph {
	edges := g.Edges()
	for i := range edges {
		edges[i].W *= factor
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

// TestHeadMatchesReferenceOnRandomGraphs is the three-tier test: on
// random weighted graphs, under every ordering and thread count (parallel
// builds add redundant entries, so the labels differ run to run; the
// answers may not), Label hands back exactly the lists the build
// appended, sorted and deduplicated, wherever finalize put each entry —
// and the dense head, the bitmap tier and the tail merge together answer
// exactly as one merge over the whole labels, and as Dijkstra. Each graph
// comes at three scales of its weights, which is the same labels at each
// of the three distance widths.
func TestHeadMatchesReferenceOnRandomGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"sparse":   gen.ErdosRenyi(130, 170, 3), // several components
		"dense":    gen.ErdosRenyi(100, 700, 4),
		"powerlaw": gen.ChungLu(150, 500, 2.2, 5),
		"grid":     gen.RoadGrid(11, 12, 260, 6),
	}
	threeTiers := 0
	widths := map[int]int{}
	for gname, unit := range graphs {
		for _, scale := range []graph.Dist{1, 300, 100_000} {
			g := scaled(unit, scale)
			orders := map[string][]graph.Vertex{
				"degree": order.Degree(g),
				"psi":    order.PsiSample(g, 4, 7),
				"random": order.Random(g, 8),
			}
			for oname, ord := range orders {
				for _, threads := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s x%d/%s/%d", gname, scale, oname, threads)
					store := label.NewStore(g.NumVertices())
					core.BuildInto(g, store, core.Options{Threads: threads, Policy: core.Dynamic, Order: ord})
					x := label.NewIndex(store)
					var hubs []graph.Vertex
					var dists []graph.Dist
					for v := 0; v < g.NumVertices(); v++ {
						hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
						list := label.SortDedupe(store.Snapshot(graph.Vertex(v)))
						if len(list) != len(hubs) || len(list) != x.LabelSize(graph.Vertex(v)) {
							t.Fatalf("%s: Label(%d) has %d entries, LabelSize %d, the build appended %d", name, v, len(hubs), x.LabelSize(graph.Vertex(v)), len(list))
						}
						for i, e := range list {
							if hubs[i] != e.Hub || dists[i] != e.D {
								t.Fatalf("%s: Label(%d)[%d] = (%d,%d), the build appended (%d,%d)", name, v, i, hubs[i], dists[i], e.Hub, e.D)
							}
						}
					}
					k, _ := x.Head()
					k2, _ := x.Mid()
					if k > 0 && k2 > 0 && tailEntries(x) > 0 {
						threeTiers++
					}
					widths[x.DistBytes()]++
					checkAgainstReference(t, name, x, g)
				}
			}
		}
	}
	if threeTiers < 90 {
		t.Fatalf("%d of 108 builds filled all three tiers: the kernels' meeting went mostly untested", threeTiers)
	}
	if widths[1] < 27 || widths[2] < 27 || widths[4] < 27 {
		t.Fatalf("builds by distance width: %v; want at least 27 of the 108 at each of 1, 2 and 4 bytes", widths)
	}
}

// tailEntries counts the entries of x that are in neither column tier.
func tailEntries(x *label.Index) int64 {
	n := float64(x.NumVertices())
	k, hd := x.Head()
	k2, md := x.Mid()
	return x.NumEntries() - int64(n*float64(k)*hd+0.5) - int64(n*float64(k2)*md+0.5)
}

// TestDistanceWidthBoundaries: the largest distance in the labels alone
// picks the width — 1 byte while 2·dmax stays below 0xFF, 2 while it
// stays below 0xFFFF — and on either side of both boundaries every query
// shape answers as a merge of the []Entry lists themselves: the sum
// 2·dmax, one below the all-ones value that marks an empty head slot,
// is a distance; a pair whose only common hub one side lacks (all-ones +
// finite) and a pair of vertices with no label at all (all-ones +
// all-ones) are graph.Inf.
func TestDistanceWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		dmax  graph.Dist
		width int
	}{{126, 1}, {127, 1}, {128, 2}, {32766, 2}, {32767, 2}, {32768, 4}} {
		// Hub 0 is in 80 of 96 labels (a head column), at distance dmax
		// from vertices 10-12; hub 1 in 15 (a mid column); hubs 40 and 41
		// in two each (tail entries); vertices 91-95 have no label.
		lists := make([][]label.Entry, 96)
		for v := range lists {
			if v < 80 {
				d := graph.Dist(v)
				if v >= 10 && v <= 12 {
					d = tc.dmax
				}
				lists[v] = append(lists[v], label.Entry{Hub: 0, D: d})
			}
			if v < 10 || v >= 85 && v < 90 {
				lists[v] = append(lists[v], label.Entry{Hub: 1, D: tc.dmax - graph.Dist(v%7)})
			}
		}
		lists[0] = append(lists[0], label.Entry{Hub: 40, D: 3})
		lists[1] = append(lists[1], label.Entry{Hub: 40, D: 4})
		lists[2] = append(lists[2], label.Entry{Hub: 41, D: 5})
		lists[90] = append(lists[90], label.Entry{Hub: 41, D: tc.dmax})
		x := label.NewIndexFromLists(lists)
		name := fmt.Sprintf("dmax=%d", tc.dmax)
		if x.DistBytes() != tc.width {
			t.Fatalf("%s: %d-byte distances, want %d", name, x.DistBytes(), tc.width)
		}
		if got := tiersOf(x); !strings.HasPrefix(got, "K=1 ") || !strings.Contains(got, "K2=1 ") || tailEntries(x) != 4 {
			t.Fatalf("%s: %s and %d tail entries, want one column each and four", name, got, tailEntries(x))
		}
		for _, want := range []struct {
			s, t graph.Vertex
			d    graph.Dist
		}{
			{10, 11, 2 * tc.dmax},  // head hub 0, the largest sum there is
			{2, 90, tc.dmax + 5},   // tail hub 41
			{85, 3, 2*tc.dmax - 4}, // mid hub 1; 85 has an empty head slot
			{85, 20, graph.Inf},    // 85 lacks hub 0, 20 lacks hub 1
			{91, 5, graph.Inf},     // no label on one side
			{91, 92, graph.Inf},    // nor on the other
		} {
			ah, ad := label.Runs(lists[want.s])
			bh, bd := label.Runs(lists[want.t])
			if d, _ := label.RefMerge(ah, ad, bh, bd); d != want.d {
				t.Fatalf("%s: the lists of %d and %d merge to %d, the case was built for %d", name, want.s, want.t, d, want.d)
			}
			if d := x.Query(want.s, want.t); d != want.d {
				t.Fatalf("%s: Query(%d,%d) = %d, want %d", name, want.s, want.t, d, want.d)
			}
		}
		var hubs []graph.Vertex
		var dists []graph.Dist
		for v, list := range lists {
			hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
			for i, e := range label.SortDedupe(list) {
				if i >= len(hubs) || hubs[i] != e.Hub || dists[i] != e.D {
					t.Fatalf("%s: Label(%d) = %v %v, the list was %v", name, v, hubs, dists, list)
				}
			}
		}
		checkAgainstReference(t, name, x, nil)
	}
}

// TestFlatOfANarrowIndex: Flat is the one layout whose Label hands out
// the stored runs, which are []graph.Dist, so it keeps 4-byte distances
// whatever the labels hold — of a tiered index and of one that has no
// column to lose, which at a narrow width is not its own Flat.
func TestFlatOfANarrowIndex(t *testing.T) {
	uniform := make([][]label.Entry, 640) // every hub in one label in 64: no column
	for v := range uniform {
		for j := 0; j < 10; j++ {
			uniform[v] = append(uniform[v], label.Entry{Hub: graph.Vertex((v + 64*j) % 640), D: graph.Dist(1 + j)})
		}
	}
	for name, x := range map[string]*label.Index{
		"tiered":     core.Build(gen.ChungLu(300, 1200, 2.2, 13), core.Options{Threads: 1}),
		"no columns": label.NewIndexFromLists(uniform),
	} {
		flat := x.Flat()
		k, _ := flat.Head()
		k2, _ := flat.Mid()
		if x.DistBytes() != 1 || flat.DistBytes() != 4 || k+k2 != 0 || !flat.Equal(x) {
			t.Fatalf("%s: %d-byte distances, Flat has %d-byte ones and %d columns, Equal %v; want 1, 4, 0, true", name, x.DistBytes(), flat.DistBytes(), k+k2, flat.Equal(x))
		}
		if flat.Flat() != flat {
			t.Fatalf("%s: Flat of a flat index is another index", name)
		}
		buf := make([]graph.Dist, 0, 64)
		for v := 0; v < x.NumVertices(); v++ {
			_, mine := flat.Label(graph.Vertex(v), nil, buf)
			_, again := flat.Label(graph.Vertex(v), nil, nil)
			if len(mine) > 0 && (&mine[0] != &again[0] || &mine[0] == &buf[:1][0]) {
				t.Fatalf("%s: Label(%d) of the flat index copies the run it could alias", name, v)
			}
			if _, copied := x.Label(graph.Vertex(v), nil, buf); len(copied) > 0 && &copied[0] != &buf[:1][0] {
				t.Fatalf("%s: Label(%d) of the narrow index did not widen into the caller's buffer", name, v)
			}
		}
	}
}

// lists96 builds 96 labels around three hubs: a in every label (a head
// column), b in those of the vertices below 10 and of s and t (a mid
// column: more than 96/32 labels), c in those of s and t alone (a tail
// hub), s = 90, t = 91, every distance to them d[0], d[1], d[2].
func lists96(a, b, c graph.Vertex, d [3]graph.Dist) [][]label.Entry {
	lists := make([][]label.Entry, 96)
	for v := range lists {
		lists[v] = append(lists[v], label.Entry{Hub: a, D: d[0]})
		if v < 10 || v == 90 || v == 91 {
			lists[v] = append(lists[v], label.Entry{Hub: b, D: d[1]})
		}
		if v == 90 || v == 91 {
			lists[v] = append(lists[v], label.Entry{Hub: c, D: d[2]})
		}
	}
	return lists
}

// TestMeetingHubAcrossTiers pins the tie rule where it is hardest to
// keep: the three tiers each find a hub at the same distance, and
// QueryWithHub and QueryExplain must name the smallest id whichever tier
// holds it — and a strictly nearer hub whatever its id.
func TestMeetingHubAcrossTiers(t *testing.T) {
	ids := []graph.Vertex{20, 40, 60}
	for _, perm := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		a, b, c := ids[perm[0]], ids[perm[1]], ids[perm[2]]
		x := label.NewIndexFromLists(lists96(a, b, c, [3]graph.Dist{5, 5, 5}))
		if got := tiersOf(x); !strings.HasPrefix(got, "K=1 density 1, K2=1 ") || tailEntries(x) != 2 {
			t.Fatalf("head %d mid %d tail %d: %s and %d tail entries, want one column each and two", a, b, c, got, tailEntries(x))
		}
		if d, hub := x.QueryWithHub(90, 91); d != 10 || hub != 20 {
			t.Fatalf("head %d mid %d tail %d, all at 10: QueryWithHub = (%d,%d), want (10,20)", a, b, c, d, hub)
		}
		if ex := x.QueryExplain(91, 90); ex.Dist != 10 || ex.Hub != 20 || ex.HeadSlots != 1 || ex.MidWords != 1 || ex.MidHits != 1 || ex.CommonHubs != 1 {
			t.Fatalf("head %d mid %d tail %d, all at 10: QueryExplain = %+v", a, b, c, ex)
		}
		for near, want := range []graph.Vertex{a, b, c} {
			d := [3]graph.Dist{5, 5, 5}
			d[near] = 4
			x := label.NewIndexFromLists(lists96(a, b, c, d))
			if got, hub := x.QueryWithHub(90, 91); got != 8 || hub != want || x.Query(90, 91) != 8 {
				t.Fatalf("head %d mid %d tail %d, %d nearer: QueryWithHub = (%d,%d), want (8,%d)", a, b, c, want, got, hub, want)
			}
		}
		checkAgainstReference(t, fmt.Sprintf("tie %v", perm), x, nil)
	}
}

// TestHeadEdgeCases forces the shapes the two column rules turn on: a
// tier that is the whole index, no columns at all, a bitmap row that
// ends on a word boundary and one that spills a single column into the
// next word, rows with every bit set and with none, labels that share no
// hub, and the two smallest indexes there are.
func TestHeadEdgeCases(t *testing.T) {
	columns := func(x *label.Index) (k, k2 int) {
		k, _ = x.Head()
		k2, _ = x.Mid()
		return k, k2
	}

	// A star: the centre is in every label, every leaf only in its own —
	// which among 10 labels is more than a 32nd of them, as any hub is
	// below 32 vertices: no tail entry, and the merge never runs.
	const leaves = 9
	var spokes []graph.Edge
	for v := 1; v <= leaves; v++ {
		spokes = append(spokes, graph.Edge{U: 0, V: graph.Vertex(v), W: graph.Dist(v)})
	}
	star := graph.FromEdges(leaves+1, spokes)
	x := core.Build(star, core.Options{Threads: 1})
	if k, k2 := columns(x); k != 1 || k2 != leaves || tailEntries(x) != 0 {
		t.Fatalf("star: K=%d K2=%d and %d tail entries, want the centre, the leaves and none", k, k2, tailEntries(x))
	}
	if ex := x.QueryExplain(2, 5); ex.Algo != "empty" || ex.HubsProbed != 0 || ex.MidWords != 1 || ex.MidHits != 0 || ex.Dist != 7 {
		t.Fatalf("star: explain %+v, want an empty tail merge and the centre's answer", ex)
	}
	checkAgainstReference(t, "star", x, star)

	// Every label the same three hubs: the head covers everything.
	full := make([][]label.Entry, 7)
	for v := range full {
		for h := 0; h < 3; h++ {
			full[v] = append(full[v], label.Entry{Hub: graph.Vertex(h), D: graph.Dist(1 + (v*3+h*5)%11)})
		}
	}
	x = label.NewIndexFromLists(full)
	if k, density := x.Head(); k != 3 || density != 1 || x.NumEntries() != 21 {
		t.Fatalf("all-head: K=%d density %g entries %d, want 3, 1, 21", k, density, x.NumEntries())
	}
	if ex := x.QueryExplain(2, 5); ex.Algo != "empty" || ex.HeadSlots != 3 || ex.MidWords != 0 || ex.HubsProbed != 0 || !ex.Reachable || ex.SLabelLen != 3 {
		t.Fatalf("all-head: explain %+v, want an empty tail merge behind 3 head slots", ex)
	}
	checkAgainstReference(t, "all-head", x, nil)

	// Only bit columns, 64 of them — a row is exactly one full word — and
	// 65, where it is two and the second holds one column.
	for _, k2 := range []int{64, 65} {
		x = label.MidOnlyIndex(k2)
		if k, got := columns(x); k != 0 || got != k2 || tailEntries(x) != 0 {
			t.Fatalf("K2=%d: K=%d K2=%d and %d tail entries, want bit columns alone", k2, k, got, tailEntries(x))
		}
		if ex := x.QueryExplain(0, 4); ex.MidWords != (k2+63)/64 || ex.MidHits != (k2+3)/4 {
			t.Fatalf("K2=%d: explain %+v, want every fourth column common to vertices 0 and 4", k2, ex)
		}
		checkAgainstReference(t, fmt.Sprintf("K2=%d", k2), x, nil)
	}

	// Ten bit columns that the first 20 of 100 vertices have every one of
	// and the rest none of: those hold a chain of tail hubs instead.
	rows := make([][]label.Entry, 100)
	for v := range rows {
		for h := 0; v < 20 && h < 10; h++ {
			rows[v] = append(rows[v], label.Entry{Hub: graph.Vertex(h), D: graph.Dist(1 + (v+h)%7)})
		}
		if v >= 20 {
			rows[v] = append(rows[v], label.Entry{Hub: graph.Vertex(v), D: 0})
		}
		if v >= 21 {
			rows[v] = append(rows[v], label.Entry{Hub: graph.Vertex(v - 1), D: 3})
		}
	}
	x = label.NewIndexFromLists(rows)
	if k, k2 := columns(x); k != 0 || k2 != 10 || x.LabelSize(5) != 10 || tailEntries(x) != 159 {
		t.Fatalf("all-or-none rows: K=%d K2=%d, |L(5)| = %d, %d tail entries; want 0, 10, 10, 159", k, k2, x.LabelSize(5), tailEntries(x))
	}
	if ex := x.QueryExplain(3, 17); ex.MidHits != 10 || ex.Algo != "empty" {
		t.Fatalf("all-or-none rows: full row against full row: %+v", ex)
	}
	if ex := x.QueryExplain(3, 50); ex.MidHits != 0 || ex.Reachable {
		t.Fatalf("all-or-none rows: full row against empty row: %+v", ex)
	}
	if ex := x.QueryExplain(50, 51); ex.MidHits != 0 || ex.Dist != 3 || ex.Hub != 50 {
		t.Fatalf("all-or-none rows: empty row against empty row: %+v", ex)
	}
	checkAgainstReference(t, "all-or-none rows", x, nil)

	// No hub in more than a 32nd of the labels: a perfect matching on 64
	// vertices, and the uniform synthetic shape, hubs drawn evenly from
	// the whole id space. K = K2 = 0 runs the same kernels over nothing.
	var matching []graph.Edge
	for v := 0; v < 64; v += 2 {
		matching = append(matching, graph.Edge{U: graph.Vertex(v), V: graph.Vertex(v + 1), W: 4})
	}
	pairsGraph := graph.FromEdges(64, matching)
	x = core.Build(pairsGraph, core.Options{Threads: 2})
	if k, k2 := columns(x); k != 0 || k2 != 0 {
		t.Fatalf("matching: K=%d K2=%d, want no column", k, k2)
	}
	if ex := x.QueryExplain(0, 1); ex.HeadSlots != 0 || ex.MidWords != 0 || ex.Dist != 4 {
		t.Fatalf("matching: explain %+v, want the tail merge alone", ex)
	}
	checkAgainstReference(t, "matching", x, pairsGraph)
	r := gen.NewRNG(11)
	uniform := make([][]label.Entry, 640)
	for v := range uniform {
		for k := 0; k < 8; k++ {
			uniform[v] = append(uniform[v], label.Entry{Hub: graph.Vertex(r.Intn(640)), D: graph.Dist(1 + r.Intn(50))})
		}
	}
	x = label.NewIndexFromLists(uniform)
	if k, k2 := columns(x); k != 0 || k2 != 0 {
		t.Fatalf("uniform: K=%d K2=%d, want no column", k, k2)
	}
	checkAgainstReference(t, "uniform", x, nil)

	// Two components, the larger one big enough to own head columns: a
	// pair inside the smaller one meets Inf + Inf in every head slot, and
	// a pair across meets Inf + d. Neither may wrap into an answer.
	var parts []graph.Edge
	for v := 1; v < 14; v++ {
		parts = append(parts, graph.Edge{U: graph.Vertex((v - 1) / 2), V: graph.Vertex(v), W: graph.Dist(1 + v%3)})
	}
	for v := 15; v < 20; v++ {
		parts = append(parts, graph.Edge{U: 14, V: graph.Vertex(v), W: 2})
	}
	split := graph.FromEdges(20, parts)
	x = core.Build(split, core.Options{Threads: 1})
	if k, _ := columns(x); k == 0 {
		t.Fatal("two components: no head column, so no Inf + Inf to saturate")
	}
	if d := x.Query(15, 16); d != 4 {
		t.Fatalf("two components: d(15,16) = %d inside the small one, want 4", d)
	}
	if d, hub := x.QueryWithHub(3, 17); d != graph.Inf || hub != -1 {
		t.Fatalf("two components: d(3,17) = (%d,%d) across, want (Inf,-1)", d, hub)
	}
	checkAgainstReference(t, "two components", x, split)

	// n = 0 and n = 1.
	for n := 0; n <= 1; n++ {
		g := graph.FromEdges(n, nil)
		x = core.Build(g, core.Options{Threads: 1})
		if x.NumVertices() != n || x.NumEntries() != int64(n) {
			t.Fatalf("n=%d: index of %d vertices, %d entries", n, x.NumVertices(), x.NumEntries())
		}
		checkAgainstReference(t, fmt.Sprintf("n=%d", n), x, g)
	}
}

// TestLabelCountsIncludeTheHead: the counts the paper reports do not
// care where an entry is stored. LabelSize, its histogram, NumEntries
// and AvgLabelSize of an index with a head and a middle tier equal those
// of the same labels with neither, and MemoryBytes counts the head's
// n x K slots and the bitmap's n x W words.
func TestLabelCountsIncludeTheHead(t *testing.T) {
	const n = 300
	g := gen.ChungLu(n, 1200, 2.2, 13)
	x := core.Build(g, core.Options{Threads: 1})
	flat, headOnly := x.Flat(), x.HeadOnly()
	k, density := x.Head()
	if k == 0 || density <= 0.5 || density > 1 {
		t.Fatalf("head K=%d density %g: every column holds more than half its slots by the rule that chose it", k, density)
	}
	k2, midDensity := x.Mid()
	if k2 == 0 || midDensity <= 1.0/32 || midDensity > 0.5 {
		t.Fatalf("mid K2=%d density %g: every column has more than a 32nd and at most half of its bits set by the rule that chose it", k2, midDensity)
	}
	if hk, hd := headOnly.Head(); hk != k || hd != density {
		t.Fatalf("HeadOnly has head K=%d density %g, the tiered index K=%d density %g", hk, hd, k, density)
	}
	if hk2, _ := headOnly.Mid(); hk2 != 0 || !headOnly.Equal(x) {
		t.Fatalf("HeadOnly has %d mid columns or other labels", hk2)
	}
	if x.NumEntries() != flat.NumEntries() || x.AvgLabelSize() != flat.AvgLabelSize() {
		t.Fatalf("entries %d LN %g with the tiers, %d and %g without", x.NumEntries(), x.AvgLabelSize(), flat.NumEntries(), flat.AvgLabelSize())
	}
	for v := 0; v < n; v++ {
		if a, b := x.LabelSize(graph.Vertex(v)), flat.LabelSize(graph.Vertex(v)); a != b {
			t.Fatalf("LabelSize(%d) = %d with the tiers, %d without", v, a, b)
		}
	}
	xs, xc := x.LabelSizeHistogram()
	fs, fc := flat.LabelSizeHistogram()
	if fmt.Sprint(xs, xc) != fmt.Sprint(fs, fc) {
		t.Fatalf("histogram %v %v with the tiers, %v %v without", xs, xc, fs, fc)
	}
	// Offsets are the same size either way, and Flat keeps every distance
	// at 4 bytes. With w bytes a distance, each head entry is w bytes
	// where it was 8, each empty head slot w where it was nothing, each
	// tail entry 4+w; each mid entry is w bytes where it was 4+w, and the
	// tier costs a bitmap, a second offset array and its column ids.
	w := int64(x.DistBytes())
	if w == 4 || headOnly.DistBytes() != int(w) || flat.DistBytes() != 4 {
		t.Fatalf("distances are %d bytes tiered, %d with a head alone, %d flat; want the same narrow width twice, then 4", w, headOnly.DistBytes(), flat.DistBytes())
	}
	held := int64(float64(n*k)*density + 0.5)
	midHeld := int64(float64(n*k2)*midDensity + 0.5)
	wantHead := flat.MemoryBytes() - 8*held - (4-w)*(x.NumEntries()-held) + w*n*int64(k) + 4*int64(k)
	if got := headOnly.MemoryBytes(); got != wantHead {
		t.Fatalf("MemoryBytes = %d with a head alone, want %d (flat %d, K=%d, %d head entries)", got, wantHead, flat.MemoryBytes(), k, held)
	}
	want := wantHead - 4*midHeld + 8*n*int64((k2+63)/64) + 8*(n+1) + 4*int64(k2)
	if got := x.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d (head only %d, K2=%d, %d mid entries)", got, want, wantHead, k2, midHeld)
	}
	if !(x.MemoryBytes() < headOnly.MemoryBytes() && headOnly.MemoryBytes() < flat.MemoryBytes()) {
		t.Fatalf("%d bytes tiered, %d with a head alone, %d flat: each rule picks only columns that pay", x.MemoryBytes(), headOnly.MemoryBytes(), flat.MemoryBytes())
	}
}
