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
			if x.DistBytes() != tc.width || len(x.headHubs) == 0 || len(x.midHubs) == 0 || len(x.hubs) == 0 {
				t.Fatalf("%s: %d-byte distances, K=%d K2=%d, %d tail entries; want %d bytes and all three tiers",
					name, x.DistBytes(), len(x.headHubs), len(x.midHubs), len(x.hubs), tc.width)
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
				p.Set(x.Union(h, hr))
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
					if got := p.Covers(u, ur, dd); got != want {
						t.Fatalf("%s: Covers(%d, run %v, d=%d) from hub %d with run %v = %v; union labels meet at %d, share a hub: %v",
							name, u, ur, dd, h, hr, got, q, shared)
					}
					switch {
					case !want:
						outcomes["not covered"]++
					case p.Covers(u, nil, dd):
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
