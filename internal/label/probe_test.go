package label

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parapll/internal/graph"
)

// unionOf is L(v) the slow way: v's label in x with run written over it,
// hub-sorted.
func unionOf(x *Index, v graph.Vertex, run []Entry) ([]graph.Vertex, []graph.Dist) {
	hubs, dists := x.Label(v, nil, nil)
	m := make(map[graph.Vertex]graph.Dist, len(hubs)+len(run))
	for i, h := range hubs {
		m[h] = dists[i]
	}
	for _, e := range run {
		m[e.Hub] = e.D
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

// TestProbeIndexMatchesReference drives the index-backed label.Probe —
// the living graph's prune test — against one merge of the two union
// labels. The bases come at each distance width, heap-built and mapped,
// each with a head, a bitmap tier and tails; the runs on both sides hold
// entries below base entries for hubs the base label holds, and entries
// for head, mid and tail hubs it lacks at distances that reach past the
// width's maxDist and its all-ones value. d is drawn around the answer q
// and around the all-ones value of the width, where an empty head slot
// summed as a distance would answer wrongly. At graph.Inf, Covers is
// whether the union labels share a hub.
func TestProbeIndexMatchesReference(t *testing.T) {
	p := NewProbe(300)
	for _, tc := range []struct {
		dmax  graph.Dist
		width int
	}{{100, 1}, {20000, 2}, {3000000, 4}} {
		r := rand.New(rand.NewSource(int64(tc.dmax) + 5))
		built := narrowTieredIndex(r, 300, tc.dmax)
		for _, x := range []*Index{built, openCopy(t, built)} {
			name := fmt.Sprintf("dmax=%d mapped=%v", tc.dmax, x.Mapped())
			if x.DistBytes() != tc.width || len(x.headHubs) == 0 || len(x.midHubs) == 0 || int(x.tail) == 0 {
				t.Fatalf("%s: %d-byte distances, K=%d K2=%d, %d tail entries; want %d bytes and all three tiers",
					name, x.DistBytes(), len(x.headHubs), len(x.midHubs), int(x.tail), tc.width)
			}
			ones := uint64(1)<<(8*tc.width) - 1
			maxD := (ones - 1) / 2
			if tc.width == 4 {
				maxD = uint64(graph.Inf) - 1
			}
			far := []uint64{0, 1, 2, 7, maxD - 1, maxD, maxD + 1, ones - 1, ones, ones + 1, 2 * ones, uint64(graph.Inf) / 2}
			// run draws a run for v: a few entries shadowing base entries,
			// a few for hubs L(v) lacks, at most one per hub.
			run := func(v graph.Vertex) []Entry {
				hubs, dists := x.Label(v, nil, nil)
				var out []Entry
				seen := map[graph.Vertex]bool{}
				for k := r.Intn(7); k > 0; k-- {
					var h graph.Vertex
					switch r.Intn(4) {
					case 0:
						h = x.headHubs[r.Intn(len(x.headHubs))]
					case 1:
						h = x.midHubs[r.Intn(len(x.midHubs))]
					default:
						h = graph.Vertex(r.Intn(x.NumVertices()))
					}
					if seen[h] {
						continue
					}
					seen[h] = true
					if i, held := slices.BinarySearch(hubs, h); held {
						if dists[i] > 0 {
							out = append(out, Entry{Hub: h, D: graph.Dist(r.Int63n(int64(dists[i])))})
						}
						continue
					}
					d := far[r.Intn(len(far))]
					if r.Intn(3) == 0 {
						d = uint64(r.Intn(int(2 * ones)))
					}
					out = append(out, Entry{Hub: h, D: graph.Dist(min(d, uint64(graph.Inf)-1))})
				}
				return out
			}
			outcomes := map[string]int{}
			for trial := 0; trial < 3000; trial++ {
				h, u := graph.Vertex(r.Intn(300)), graph.Vertex(r.Intn(300))
				if trial%4 == 0 {
					u = graph.Vertex(17*r.Intn(17) + 3) // an empty base label: every head slot empty
				}
				hr, ur := run(h), run(u)
				p.Set(x.Union(h, ListOf(hr)))
				hh, hd := unionOf(x, h, hr)
				uh, ud := unionOf(x, u, ur)
				q, _ := MergeRuns(hh, hd, uh, ud)
				shared := slices.ContainsFunc(hh, func(h graph.Vertex) bool {
					_, ok := slices.BinarySearch(uh, h)
					return ok
				})
				for _, d := range []uint64{uint64(q) - 1, uint64(q), uint64(q) + 1, ones - 1, ones, ones + 1} {
					if d > uint64(graph.Inf) {
						continue
					}
					dd := graph.Dist(d)
					want := q <= dd
					if dd == graph.Inf {
						want = shared
					}
					if got := p.Covers(u, ListOf(ur), dd); got != want {
						t.Fatalf("%s: Covers(%d, run %v, d=%d) from hub %d with run %v = %v; union labels meet at %d, share a hub: %v",
							name, u, ur, dd, h, hr, got, q, shared)
					}
					switch {
					case !want:
						outcomes["not covered"]++
					case p.Covers(u, List{}, dd):
						outcomes["covered by the base"]++
					default:
						outcomes["covered by the run"]++
					}
				}
			}
			for _, o := range []string{"not covered", "covered by the base", "covered by the run"} {
				if outcomes[o] < 100 {
					t.Fatalf("%s: outcomes %v: the generator no longer exercises %q", name, outcomes, o)
				}
			}
		}
	}
}

// TestSetCountsEachEntryOnce holds the store form's Set to its count: one
// for each head column and one for each list entry, whether or not the
// column holds a cell. Its held cells also go into tmp, and must not
// count a second time.
func TestSetCountsEachEntryOnce(t *testing.T) {
	const n = 2 * headBlock
	ord := make([]graph.Vertex, n)
	for i := range ord {
		ord[i] = graph.Vertex(i)
	}
	s := NewStore(n)
	s.UseHead(ord)
	s.BeginRoot(0)
	const root = 5
	for c := graph.Vertex(0); c < 20; c++ {
		s.Append(root, c, graph.Dist(1+c)) // 20 cells
	}
	s.Append(root, 3, maxCell+1)       // a head hub's entry in the list
	s.Append(root, headBlock+7, 2)     // a list hub
	s.Append(root, headBlock+9, 1<<20) // a list hub, far
	p := NewProbe(n)
	if got, want := p.Set(s.Label(root)), p.Width()+3; got != want {
		t.Fatalf("Set = %d over %d columns and 3 list entries, want %d", got, p.Width(), want)
	}
	if got := p.Set(Label{Rest: s.Snapshot(root)}); got != 3 {
		t.Fatalf("Set over a list of 3 without a head = %d, want 3", got)
	}
}

// BenchmarkHeadCovers times the store form's head test alone (no list)
// on full scans — no column covers d — in two shapes: 576 columns at fill
// 0.34, the head a one-thread build of the benchmark's p2p graph
// (Gnutella@0.35) keeps, and one empty block, the road graph's, whose
// distances exceed a cell. Each shape runs the lane test and the
// per-cell loop that takes d above maxLaneD, on the same cells. ns/cell
// is a test's time over the Width() cells it reads.
func BenchmarkHeadCovers(b *testing.B) {
	for _, bc := range []struct {
		name string
		cols int
		fill float64
	}{{"p2p-576x0.34", 576, 0.34}, {"road-64x0", 64, 0}} {
		const n = 2048
		r := rand.New(rand.NewSource(38))
		ord := make([]graph.Vertex, n)
		for i := range ord {
			ord[i] = graph.Vertex(i)
		}
		s := NewStore(n)
		s.UseHead(ord)
		for c := 0; c < bc.cols; c++ {
			s.BeginRoot(c)
			for v := 0; v < n; v++ {
				if r.Float64() < bc.fill {
					s.Append(graph.Vertex(v), ord[c], graph.Dist(2+r.Intn(10)))
				}
			}
		}
		p := NewProbe(n)
		p.Set(s.Label(0))
		for _, test := range []struct {
			name   string
			covers func(v int) bool
		}{
			{"lanes", func(v int) bool { return p.headCovers(v, 3) }}, // every sum is at least 4
			{"per-cell", func(v int) bool { return p.headCoversScalar(v, 3) }},
		} {
			b.Run(bc.name+"/"+test.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if test.covers(i % n) {
						b.Fatal("a column covers d")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Width()), "ns/cell")
			})
		}
	}
}
