package label_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
// same labels without a head, answers every pair as refQuery does, and as
// Dijkstra on g does when there is a graph; and that x survives PIDX ->
// PIDC -> PIDM -> Open with its labels, its counts and its answers.
func checkAgainstReference(t *testing.T, name string, x *label.Index, g *graph.Graph) {
	t.Helper()
	n := x.NumVertices()
	var pairs [][2]graph.Vertex
	var want []graph.Dist
	var wantHub []graph.Vertex
	var entries int64
	for s := 0; s < n; s++ {
		entries += int64(x.LabelSize(graph.Vertex(s)))
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
	}{{"head", x}, {"flat", x.Flat()}, {"reopened", opened}} {
		if k, _ := side.x.Head(); side.name == "flat" && k != 0 {
			t.Fatalf("%s: Flat left %d head columns", name, k)
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
		for _, threads := range []int{1, 3} {
			for i, d := range side.x.QueryBatch(pairs, threads) {
				if d != want[i] {
					t.Fatalf("%s/%s: QueryBatch(%d threads)%v = %d, want %d", name, side.name, threads, pairs[i], d, want[i])
				}
			}
		}
	}
}

// roundTrip sends x through every format in turn — PIDX, then PIDC, then
// a PIDM file — and returns the mapped result, verified.
func roundTrip(t *testing.T, name string, x *label.Index) *label.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fixed, err := label.ReadAny(&buf)
	if err != nil {
		t.Fatalf("%s: reading PIDX: %v", name, err)
	}
	buf.Reset()
	if err := fixed.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	compact, err := label.ReadAny(&buf)
	if err != nil {
		t.Fatalf("%s: reading PIDC: %v", name, err)
	}
	if !fixed.Equal(x) || !compact.Equal(x) {
		t.Fatalf("%s: a stream format changed the labels", name)
	}
	buf.Reset()
	if err := compact.WriteMmap(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.midx")
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
	xk, xd := x.Head()
	if k, d := opened.Head(); k != xk || d != xd {
		t.Fatalf("%s: head K=%d density %g went through the formats and came back K=%d density %g", name, xk, xd, k, d)
	}
	return opened
}

// TestHeadMatchesReferenceOnRandomGraphs: on random weighted graphs,
// under every ordering and thread count (parallel builds add redundant
// entries, so the labels differ run to run; the answers may not), the
// dense head and the tail merge together answer exactly as one merge
// over the whole labels, and as Dijkstra.
func TestHeadMatchesReferenceOnRandomGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"sparse":   gen.ErdosRenyi(70, 90, 3), // several components
		"dense":    gen.ErdosRenyi(60, 400, 4),
		"powerlaw": gen.ChungLu(90, 300, 2.2, 5),
		"grid":     gen.RoadGrid(8, 9, 140, 6),
	}
	withHead := 0
	for gname, g := range graphs {
		orders := map[string][]graph.Vertex{
			"degree": order.Degree(g),
			"psi":    order.PsiSample(g, 4, 7),
			"random": order.Random(g, 8),
		}
		for oname, ord := range orders {
			for _, threads := range []int{1, 2, 8} {
				x := core.Build(g, core.Options{Threads: threads, Policy: core.Dynamic, Order: ord})
				if k, _ := x.Head(); k > 0 {
					withHead++
				}
				checkAgainstReference(t, fmt.Sprintf("%s/%s/%d", gname, oname, threads), x, g)
			}
		}
	}
	if withHead == 0 {
		t.Fatal("no build produced a head: the dense kernel went untested")
	}
}

// TestHeadEdgeCases forces the shapes the column rule turns on: a head
// that is the whole index, no head at all, labels that share no hub, and
// the two smallest indexes there are.
func TestHeadEdgeCases(t *testing.T) {
	head := func(x *label.Index) int { k, _ := x.Head(); return k }

	// A star: the centre is in every label, every leaf only in its own.
	const leaves = 9
	var spokes []graph.Edge
	for v := 1; v <= leaves; v++ {
		spokes = append(spokes, graph.Edge{U: 0, V: graph.Vertex(v), W: graph.Dist(v)})
	}
	star := graph.FromEdges(leaves+1, spokes)
	x := core.Build(star, core.Options{Threads: 1})
	if head(x) != 1 {
		t.Fatalf("star: %d head columns, want the centre alone", head(x))
	}
	checkAgainstReference(t, "star", x, star)

	// Every label the same three hubs: the head covers everything and
	// every tail is empty, so the merge never runs.
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
	if ex := x.QueryExplain(2, 5); ex.Algo != "empty" || ex.HeadSlots != 3 || ex.HubsProbed != 0 || !ex.Reachable || ex.SLabelLen != 3 {
		t.Fatalf("all-head: explain %+v, want an empty tail merge behind 3 head slots", ex)
	}
	checkAgainstReference(t, "all-head", x, nil)

	// No hub in more than half the labels: a perfect matching, and the
	// uniform synthetic shape, hubs drawn evenly from the whole id space.
	var matching []graph.Edge
	for v := 0; v < 12; v += 2 {
		matching = append(matching, graph.Edge{U: graph.Vertex(v), V: graph.Vertex(v + 1), W: 4})
	}
	pairsGraph := graph.FromEdges(12, matching)
	x = core.Build(pairsGraph, core.Options{Threads: 2})
	if head(x) != 0 {
		t.Fatalf("matching: %d head columns, want none", head(x))
	}
	checkAgainstReference(t, "matching", x, pairsGraph)
	r := gen.NewRNG(11)
	uniform := make([][]label.Entry, 40)
	for v := range uniform {
		for k := 0; k < 12; k++ {
			uniform[v] = append(uniform[v], label.Entry{Hub: graph.Vertex(r.Intn(40)), D: graph.Dist(1 + r.Intn(50))})
		}
	}
	x = label.NewIndexFromLists(uniform)
	if head(x) != 0 {
		t.Fatalf("uniform: %d head columns, want none", head(x))
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
	if head(x) == 0 {
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
// and AvgLabelSize of an index with a head equal those of the same
// labels without one, and MemoryBytes counts the head's n x K slots.
func TestLabelCountsIncludeTheHead(t *testing.T) {
	g := gen.ChungLu(300, 1200, 2.2, 13)
	x := core.Build(g, core.Options{Threads: 1})
	flat := x.Flat()
	k, density := x.Head()
	if k == 0 || density <= 0.5 || density > 1 {
		t.Fatalf("head K=%d density %g: every column holds more than half its slots by the rule that chose it", k, density)
	}
	if x.NumEntries() != flat.NumEntries() || x.AvgLabelSize() != flat.AvgLabelSize() {
		t.Fatalf("entries %d LN %g with the head, %d and %g without", x.NumEntries(), x.AvgLabelSize(), flat.NumEntries(), flat.AvgLabelSize())
	}
	for v := 0; v < 300; v++ {
		if a, b := x.LabelSize(graph.Vertex(v)), flat.LabelSize(graph.Vertex(v)); a != b {
			t.Fatalf("LabelSize(%d) = %d with the head, %d without", v, a, b)
		}
	}
	xs, xc := x.LabelSizeHistogram()
	fs, fc := flat.LabelSizeHistogram()
	if fmt.Sprint(xs, xc) != fmt.Sprint(fs, fc) {
		t.Fatalf("histogram %v %v with the head, %v %v without", xs, xc, fs, fc)
	}
	// Offsets are the same size either way; each head entry is 4 bytes
	// where it was 8, each empty head slot 4 where it was nothing.
	n, held := int64(300), int64(float64(300*k)*density+0.5)
	if got, want := x.MemoryBytes(), flat.MemoryBytes()-8*held+4*n*int64(k)+4*int64(k); got != want {
		t.Fatalf("MemoryBytes = %d, want %d (flat %d, K=%d, %d head entries)", got, want, flat.MemoryBytes(), k, held)
	}
	if x.MemoryBytes() >= flat.MemoryBytes() {
		t.Fatalf("the head costs %d bytes where the flat index costs %d: the rule picks only columns that pay", x.MemoryBytes(), flat.MemoryBytes())
	}
}
