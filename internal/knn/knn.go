// Package knn answers k-nearest-neighbor queries ("the k closest
// vertices to s") on top of a 2-hop index — the query shape the paper's
// social-aware-search motivation actually needs: ranking candidate
// users/pages by closeness requires the nearest few, not one pair.
//
// It inverts the label index: for every hub h, a list of (v, d(h,v))
// sorted by distance. A query merges the |L(s)| inverted lists in
// increasing ds + d order with a priority queue; a vertex can be emitted
// as soon as the merge frontier exceeds its best candidate, because the
// 2-hop cover guarantees its minimal candidate equals its exact
// distance. Complexity is output-sensitive: roughly O((k + |L(s)|) log
// |L(s)|) heap operations for well-covered graphs.
package knn

import (
	"sort"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// Result is one k-NN answer entry.
type Result struct {
	V graph.Vertex
	D graph.Dist
}

// Index is the inverted form of a label.Index.
type Index struct {
	idx *label.Index
	// Inverted lists, flattened: for hub h, entries invOff[h]:invOff[h+1]
	// of (invV, invD), sorted by invD ascending.
	invOff []int64
	invV   []graph.Vertex
	invD   []graph.Dist
}

// New builds the inverted structure from a finalized index. Memory cost
// equals the index itself (every label entry appears once, transposed).
// The queries read x's labels: it must not be closed while they run.
func New(x *label.Index) *Index {
	n := x.NumVertices()
	counts := make([]int64, n+1)
	var hubs []graph.Vertex
	var dists []graph.Dist
	for v := 0; v < n; v++ {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		for _, h := range hubs {
			counts[h+1]++
		}
	}
	inv := &Index{idx: x, invOff: make([]int64, n+1)}
	for h := 0; h < n; h++ {
		inv.invOff[h+1] = inv.invOff[h] + counts[h+1]
	}
	total := inv.invOff[n]
	inv.invV = make([]graph.Vertex, total)
	inv.invD = make([]graph.Dist, total)
	cursor := make([]int64, n)
	copy(cursor, inv.invOff[:n])
	for v := 0; v < n; v++ {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		for i, h := range hubs {
			inv.invV[cursor[h]] = graph.Vertex(v)
			inv.invD[cursor[h]] = dists[i]
			cursor[h]++
		}
	}
	// Sort each hub's list by distance (stable on vertex for determinism).
	for h := 0; h < n; h++ {
		lo, hi := inv.invOff[h], inv.invOff[h+1]
		row := invRow{v: inv.invV[lo:hi], d: inv.invD[lo:hi]}
		sort.Stable(row)
	}
	return inv
}

type invRow struct {
	v []graph.Vertex
	d []graph.Dist
}

func (r invRow) Len() int { return len(r.v) }
func (r invRow) Less(i, j int) bool {
	if r.d[i] != r.d[j] {
		return r.d[i] < r.d[j]
	}
	return r.v[i] < r.v[j]
}
func (r invRow) Swap(i, j int) {
	r.v[i], r.v[j] = r.v[j], r.v[i]
	r.d[i], r.d[j] = r.d[j], r.d[i]
}

// cursorItem is one merge stream: position pos within hub stream i,
// with the stream's base distance ds (= d(s, hub)).
type cursorItem struct {
	key    graph.Dist // ds + invD[pos]: next candidate distance
	stream int32
	pos    int64
}

// mergeHeap is a small binary heap of cursorItems keyed by key.
type mergeHeap []cursorItem

func (h *mergeHeap) push(it cursorItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].key <= (*h)[i].key {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *mergeHeap) pop() cursorItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && old[r].key < old[l].key {
			c = r
		}
		if old[i].key <= old[c].key {
			break
		}
		old[i], old[c] = old[c], old[i]
		i = c
	}
	return top
}

// Within returns every vertex at distance <= radius from s (excluding s
// itself), with exact distances, sorted by distance then id. It shares
// the k-NN merge machinery but stops once the frontier passes radius.
func (inv *Index) Within(s graph.Vertex, radius graph.Dist) []Result {
	sHubs, sDists := inv.idx.Label(s, nil, nil)
	var h mergeHeap
	for i, hub := range sHubs {
		lo, hi := inv.invOff[hub], inv.invOff[hub+1]
		if lo < hi {
			if key := graph.AddDist(sDists[i], inv.invD[lo]); key <= radius {
				h.push(cursorItem{key: key, stream: int32(i), pos: lo})
			}
		}
	}
	best := make(map[graph.Vertex]graph.Dist)
	for len(h) > 0 {
		it := h.pop()
		if it.key > radius {
			break
		}
		v := inv.invV[it.pos]
		if cur, ok := best[v]; !ok || it.key < cur {
			best[v] = it.key
		}
		hub := sHubs[it.stream]
		next := it.pos + 1
		if next < inv.invOff[hub+1] {
			key := graph.AddDist(sDists[it.stream], inv.invD[next])
			if key <= radius {
				h.push(cursorItem{key: key, stream: it.stream, pos: next})
			}
		}
	}
	out := make([]Result, 0, len(best))
	for v, d := range best {
		if v != s {
			out = append(out, Result{V: v, D: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].D != out[j].D {
			return out[i].D < out[j].D
		}
		return out[i].V < out[j].V
	})
	return out
}

// Query returns the k vertices closest to s (excluding s itself),
// ordered by distance then id, with exact distances. Fewer than k
// results means the component of s has fewer other vertices.
func (inv *Index) Query(s graph.Vertex, k int) []Result {
	if k <= 0 {
		return nil
	}
	sHubs, sDists := inv.idx.Label(s, nil, nil)
	var h mergeHeap
	bases := make([]graph.Dist, len(sHubs))
	streams := make([]int64, len(sHubs)) // stream i reads hub sHubs[i]
	for i, hub := range sHubs {
		bases[i] = sDists[i]
		lo, hi := inv.invOff[hub], inv.invOff[hub+1]
		streams[i] = hi
		if lo < hi {
			h.push(cursorItem{key: graph.AddDist(bases[i], inv.invD[lo]), stream: int32(i), pos: lo})
		}
	}
	best := make(map[graph.Vertex]graph.Dist)
	emitted := make(map[graph.Vertex]bool)
	var out []Result
	var lastScanned graph.Dist
	for len(h) > 0 && len(out) < k {
		it := h.pop()
		// Settle every vertex whose best candidate can no longer improve.
		// A candidate's key only grows within a stream, so when the
		// global frontier passes best[v], best[v] is exact.
		v := inv.invV[it.pos]
		d := it.key
		if cur, ok := best[v]; !ok || d < cur {
			best[v] = d
		}
		// Advance the stream.
		hub := sHubs[it.stream]
		next := it.pos + 1
		if next < inv.invOff[hub+1] {
			h.push(cursorItem{
				key:    graph.AddDist(bases[it.stream], inv.invD[next]),
				stream: it.stream,
				pos:    next,
			})
		}
		// Emit settled vertices — all v with best[v] <= frontier — but
		// only when the frontier actually advanced, so the map scan runs
		// once per distinct distance value rather than once per pop.
		frontier := graph.Inf
		if len(h) > 0 {
			frontier = h[0].key
		}
		if frontier > lastScanned || len(h) == 0 {
			for cand, cd := range best {
				if cd <= frontier && !emitted[cand] {
					if cand != s {
						out = append(out, Result{V: cand, D: cd})
					}
					emitted[cand] = true
				}
			}
			lastScanned = frontier
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].D != out[j].D {
			return out[i].D < out[j].D
		}
		return out[i].V < out[j].V
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
