package label

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"parapll/internal/graph"
)

// refMerge is the obviously-correct reference for MergeRuns: intersect
// via a map, scan the (sorted) b run so ties resolve to the smallest
// hub, exactly as the kernel's strict < update does.
func refMerge(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) (graph.Dist, graph.Vertex) {
	da := make(map[graph.Vertex]graph.Dist, len(ah))
	for i, h := range ah {
		da[h] = ad[i]
	}
	best := graph.Inf
	hub := graph.Vertex(-1)
	for j, h := range bh {
		if d0, ok := da[h]; ok {
			if d := graph.AddDist(d0, bd[j]); d < best {
				best = d
				hub = h
			}
		}
	}
	return best, hub
}

// randRun builds a strictly hub-increasing run of length n with hubs
// drawn from [0, hubSpace).
func randRun(r *rand.Rand, n, hubSpace int) ([]graph.Vertex, []graph.Dist) {
	if n > hubSpace {
		n = hubSpace
	}
	perm := r.Perm(hubSpace)[:n]
	hubs := make([]graph.Vertex, n)
	for i, h := range perm {
		hubs[i] = graph.Vertex(h)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && hubs[j] < hubs[j-1]; j-- {
			hubs[j], hubs[j-1] = hubs[j-1], hubs[j]
		}
	}
	dists := make([]graph.Dist, n)
	for i := range dists {
		dists[i] = graph.Dist(r.Intn(1 << 20))
	}
	return hubs, dists
}

// runIndex packs two label runs into an index as the labels of vertex 0
// and vertex 1, so tests can drive the Index instantiations of the
// kernel with the same arbitrary runs they feed MergeRuns. Every hub id
// must be a vertex (the Index invariant), so the index has as many
// further, unlabelled vertices as the largest hub needs.
func runIndex(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) *Index {
	n := 2
	la := make([]Entry, len(ah))
	for i := range ah {
		la[i] = Entry{Hub: ah[i], D: ad[i]}
		n = max(n, int(ah[i])+1)
	}
	lb := make([]Entry, len(bh))
	for i := range bh {
		lb[i] = Entry{Hub: bh[i], D: bd[i]}
		n = max(n, int(bh[i])+1)
	}
	lists := make([][]Entry, n)
	lists[0], lists[1] = la, lb
	return NewIndexFromLists(lists)
}

// TestMergeRunsMatchesReference is the one table every instantiation of
// merge answers to, and the batch kernel beside them: the same runs go
// through MergeRuns, Query, QueryWithHub, QueryExplain and QueryBatch,
// and all must agree with refMerge on distance and (where the shape
// reports one) meeting hub.
func TestMergeRunsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := []struct {
		na, nb   int
		saturate bool // every other distance sits within 3 of Inf, none on it: an index stores no Inf
	}{
		{na: 0, nb: 0}, {na: 0, nb: 50}, {na: 50, nb: 0}, // empty on either side
		{na: 3, nb: 3}, {na: 1, nb: 1},
		{na: 1, nb: 100},                 // maximal asymmetry: gallop
		{na: 5, nb: 200},                 // gallop
		{na: 10, nb: 79},                 // long == 8*short-1, just under the ratio: linear
		{na: 10, nb: 80},                 // long == 8*short, exactly at the ratio: gallop
		{na: 56, nb: 7},                  // at the ratio with the longer run first: swap, then gallop
		{na: 55, nb: 7},                  // one under it, longer first: swap, then linear
		{na: 64, nb: 64},                 // symmetric linear
		{na: 200, nb: 31},                // longer run first: merge must swap
		{na: 40, nb: 40, saturate: true}, // linear walk over sums that clamp to Inf
		{na: 4, nb: 120, saturate: true}, // gallop over them
		{na: 0, nb: 9, saturate: true},
	}
	for _, sz := range sizes {
		for trial := 0; trial < 50; trial++ {
			ah, ad := randRun(r, sz.na, 400)
			bh, bd := randRun(r, sz.nb, 400)
			if sz.saturate {
				for i := 0; i < len(ad); i += 2 {
					ad[i] = graph.Inf - 1 - graph.Dist(r.Intn(3))
				}
				for i := r.Intn(2); i < len(bd); i += 2 {
					bd[i] = graph.Inf - 1 - graph.Dist(r.Intn(3))
				}
			}
			wantD, wantH := refMerge(ah, ad, bh, bd)
			check := func(shape string, gotD graph.Dist, gotH graph.Vertex) {
				t.Helper()
				if gotD != wantD || gotH != wantH {
					t.Fatalf("sizes %+v trial %d: %s = (%d,%d), want (%d,%d)\nah=%v\nbh=%v",
						sz, trial, shape, gotD, gotH, wantD, wantH, ah, bh)
				}
			}
			d, h := MergeRuns(ah, ad, bh, bd)
			check("MergeRuns", d, h)
			x := runIndex(ah, ad, bh, bd)
			check("Query", x.Query(0, 1), wantH) // distance-only: no hub to compare
			d, h = x.QueryWithHub(0, 1)
			check("QueryWithHub", d, h)
			check("QueryBatch", x.QueryBatch([][2]graph.Vertex{{0, 1}}, 1)[0], wantH)
			ex := x.QueryExplain(0, 1)
			check("QueryExplain", ex.Dist, ex.Hub)
			if ex.SLabelLen != len(ah) || ex.TLabelLen != len(bh) || ex.Swapped != (len(ah) > len(bh)) {
				t.Fatalf("sizes %+v trial %d: explain saw lens %d/%d swapped=%v for runs of %d/%d",
					sz, trial, ex.SLabelLen, ex.TLabelLen, ex.Swapped, len(ah), len(bh))
			}
		}
	}
}

// TestMergeRunFindsEveryTier: MergeRun looks each hub of a run up in the
// tier finalize put it in — a head column, a bitmap bit, a tail entry —
// and skips a hub L(v) lacks, be it a head hub with an empty slot, a mid
// hub with a clear bit or a hub with no column; at each width, built and
// mapped, every lone hub and every longer run answers as refMerge over
// the whole label, down to the smallest hub among ties.
func TestMergeRunFindsEveryTier(t *testing.T) {
	for _, tc := range []struct {
		dmax  graph.Dist
		width int
	}{{100, 1}, {20000, 2}, {3000000, 4}} {
		r := rand.New(rand.NewSource(int64(tc.dmax)))
		built := narrowTieredIndex(r, 300, tc.dmax)
		for _, x := range []*Index{built, openCopy(t, built)} {
			name := fmt.Sprintf("dmax=%d mapped=%v", tc.dmax, x.Mapped())
			if x.DistBytes() != tc.width || len(x.headHubs) == 0 || len(x.midHubs) == 0 || int(x.tail) == 0 {
				t.Fatalf("%s: %d-byte distances, K=%d K2=%d, %d tail entries; want %d bytes and all three tiers",
					name, x.DistBytes(), len(x.headHubs), len(x.midHubs), int(x.tail), tc.width)
			}
			seen := map[string]int{}
			for v := graph.Vertex(0); int(v) < x.NumVertices(); v += 7 {
				lh, ld := x.Label(v, nil, nil)
				check := func(what string, hubs []graph.Vertex, dists []graph.Dist) {
					t.Helper()
					wantD, wantH := refMerge(hubs, dists, lh, ld)
					if d, h := x.MergeRun(v, hubs, dists); d != wantD || h != wantH {
						t.Fatalf("%s: MergeRun(%d, %s %v) = (%d,%d), want (%d,%d)", name, v, what, hubs, d, h, wantD, wantH)
					}
				}
				for h := graph.Vertex(0); int(h) < x.NumVertices(); h++ {
					tier := "tail"
					if _, ok := slices.BinarySearch(x.headHubs, h); ok {
						tier = "head"
					} else if _, ok := slices.BinarySearch(x.midHubs, h); ok {
						tier = "mid"
					}
					if _, ok := slices.BinarySearch(lh, h); !ok {
						tier += " absent"
					}
					seen[tier]++
					check(tier, []graph.Vertex{h}, []graph.Dist{graph.Dist(r.Intn(1000))})
					if want, _ := refMerge([]graph.Vertex{h}, []graph.Dist{0}, lh, ld); x.HubDist(v, h) != want {
						t.Fatalf("%s: HubDist(%d, %s %d) = %d, want %d", name, v, tier, h, x.HubDist(v, h), want)
					}
				}
				hubs, dists := randRun(r, 60, x.NumVertices())
				for i := range dists {
					dists[i] %= 8 // ties between hubs
				}
				check("run", hubs, dists)
				check("empty run", nil, nil)
			}
			for _, tier := range []string{"head", "head absent", "mid", "mid absent", "tail", "tail absent"} {
				if seen[tier] == 0 {
					t.Fatalf("%s: no %s hub probed", name, tier)
				}
			}
		}
	}
}

func TestMergeRunsEqualStretch(t *testing.T) {
	// Identical hub lists: the unrolled equal-hub loop consumes the
	// whole pair of runs in one stretch.
	r := rand.New(rand.NewSource(9))
	hubs, ad := randRun(r, 128, 128)
	_, bd := randRun(r, 128, 128)
	wantD, wantH := refMerge(hubs, ad, hubs, bd)
	gotD, gotH := MergeRuns(hubs, ad, hubs, bd)
	if gotD != wantD || gotH != wantH {
		t.Fatalf("equal runs: got (%d,%d), want (%d,%d)", gotD, gotH, wantD, wantH)
	}
}

func TestMergeRunsSaturation(t *testing.T) {
	// Distances near Inf must saturate, not wrap to a small winner.
	ah := []graph.Vertex{1, 2}
	ad := []graph.Dist{graph.Inf - 1, 5}
	bh := []graph.Vertex{1, 3}
	bd := []graph.Dist{graph.Inf - 1, 5}
	d, h := MergeRuns(ah, ad, bh, bd)
	if d != graph.Inf || h != -1 {
		t.Fatalf("saturating merge = (%d,%d), want (Inf,-1)", d, h)
	}
	if d := runIndex(ah, ad, bh, bd).Query(0, 1); d != graph.Inf {
		t.Fatalf("saturating dist kernel = %d, want Inf", d)
	}
}

func TestMergeRunsDisjoint(t *testing.T) {
	ah := []graph.Vertex{0, 2, 4}
	bh := []graph.Vertex{1, 3, 5}
	ds := []graph.Dist{1, 1, 1}
	if d, h := MergeRuns(ah, ds, bh, ds); d != graph.Inf || h != -1 {
		t.Fatalf("disjoint merge = (%d,%d), want (Inf,-1)", d, h)
	}
}

func mustPanicContaining(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestQueryOutOfRangePanics(t *testing.T) {
	s := NewStore(3)
	s.Append(0, 0, 0)
	s.Append(1, 0, 4)
	x := NewIndex(s)
	cases := []struct{ s, t graph.Vertex }{
		{3, 0}, {0, 3}, {-1, 0}, {0, -1},
		{3, 3},   // s == t must NOT shortcut past the bounds check
		{-2, -2}, // ditto, negative
	}
	for _, c := range cases {
		mustPanicContaining(t, "out of range", func() { x.Query(c.s, c.t) })
		mustPanicContaining(t, "out of range", func() { x.QueryWithHub(c.s, c.t) })
	}
	// In-range self query still answers 0 without touching labels.
	if d := x.Query(2, 2); d != 0 {
		t.Fatalf("Query(2,2) = %d, want 0", d)
	}
}

func TestQueryBatchChunkedMatchesQuery(t *testing.T) {
	// Big enough that BatchQueryChunks splits into many aligned chunks,
	// with thread counts that do not divide the pair count.
	r := rand.New(rand.NewSource(99))
	s := NewStore(300)
	for i := 0; i < 6000; i++ {
		s.Append(graph.Vertex(r.Intn(300)), graph.Vertex(r.Intn(300)), graph.Dist(r.Intn(5000)))
	}
	x := NewIndex(s)
	pairs := make([][2]graph.Vertex, 5003)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(300)), graph.Vertex(r.Intn(300))}
	}
	want := make([]graph.Dist, len(pairs))
	for i, p := range pairs {
		want[i] = x.Query(p[0], p[1])
	}
	for _, threads := range []int{1, 2, 7, 16, 0} {
		got := x.QueryBatch(pairs, threads)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d pair %d: batch %d != single %d", threads, i, got[i], want[i])
			}
		}
	}
}
