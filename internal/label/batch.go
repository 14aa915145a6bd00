package label

import (
	"runtime"
	"slices"

	"parapll/internal/graph"
)

// batch.go is the batch form of QUERY(s,t,L). A lone pair has to merge
// two sorted runs (merge.go) because nobody owns memory to do better; a
// batch has workers, and a worker can own an array. So the batch kernel
// is the prune test of the build (Probe.Covers) turned into a minimum:
// scatter the tail of L(s) into a dense array indexed by hub id once per
// distinct source, then every target of that source is one forward pass
// over the tail of L(t) — no three-way compare, so nothing for the branch
// predictor to miss. The head needs no scatter at all: its rows are
// already aligned column by column (rowMin); nor does the middle tier,
// whose bitmap rows line up word by word (midMin) — expanding a source's
// bit row into a dense array was tried and costs more than the ranks it
// saves at the few targets a source has in a batch.

// batchScratch is what one QueryBatch call or one of its workers borrows
// from its Index for the duration.
type batchScratch struct {
	// hub is the dense hub array: hub[h] = d(s,h) for the tail hubs of
	// the source s being served, graph.Inf everywhere else — and graph.Inf
	// everywhere whenever the scratch is not inside scan. 4 bytes per
	// vertex whatever the index's distance width; made on first use, so
	// a caller that only sorts never pays.
	hub []graph.Dist
	// keys are the sort keys of the call holding this scratch.
	keys []uint64
}

// borrow takes a scratch from the index's pool. Its holder returns it
// with x.scratch.Put once scan has come back; a holder that panics does
// not, because a scan that unwound midway leaves hub entries set.
func (x *Index) borrow() *batchScratch {
	if sc, _ := x.scratch.Get().(*batchScratch); sc != nil {
		return sc
	}
	return new(batchScratch)
}

// hubArray returns the scratch's dense array for an n-vertex index.
func (sc *batchScratch) hubArray(n int) []graph.Dist {
	if sc.hub == nil {
		sc.hub = make([]graph.Dist, n)
		for i := range sc.hub {
			sc.hub[i] = graph.Inf
		}
	}
	return sc.hub
}

// QueryBatch answers many (s,t) pairs on up to `threads` goroutines
// (<= 0 means GOMAXPROCS); result i answers pairs[i]. The index is
// immutable, so concurrent batches need no synchronization. This is the
// common production query shape (closeness ranking, distance matrices,
// /batch requests), and it is cheaper per pair than Query: the pairs are
// ordered by source once, each worker scatters a source's tail into its
// own dense array once per run of equal sources, and each target is then
// two branch-free scans, one of its tail and one of the head rows, and
// one pass over the bitmap rows (see scan). Out-of-range ids panic as in
// Query, before any pair is answered.
//
// A batch that fits one chunk runs on the caller and allocates only its
// result. Each worker holds 4·NumVertices() bytes of pooled scratch.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	out := make([]graph.Dist, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	n := x.NumVertices()
	sc := x.borrow()
	keys := sc.keys[:0]
	for i, p := range pairs {
		x.checkPair(p[0], p[1])
		// Source in the high half, position in the low: sorting the keys
		// groups equal sources and remembers where each answer goes.
		// scan turns each into position and distance.
		keys = append(keys, uint64(uint32(p[0]))<<32|uint64(uint32(i)))
	}
	slices.Sort(keys)
	if plan := graph.PlanChunks(len(keys), threads); plan.Inline() {
		x.a.scan(x, pairs, keys, sc.hubArray(n))
	} else {
		plan.Run(func(lo, hi int) {
			w := x.borrow()
			x.a.scan(x, pairs, keys[lo:hi], w.hubArray(n))
			x.scratch.Put(w)
		})
	}
	for _, k := range keys {
		out[k>>32] = graph.Dist(k)
	}
	sc.keys = keys
	x.scratch.Put(sc)
	return out
}

// scan answers the pairs named by keys (source-sorted; see QueryBatch),
// replacing each key by its pair's position in the high half and its
// distance in the low. Answers go there and not straight into the result
// slice because the sort has dealt neighbouring results to different
// workers: chunks of keys share no cache line, the result slice would
// share nearly all of them. hub must be all-Inf on entry and is all-Inf
// again on return; if scan panics — a hub id outside [0,n), which only a
// damaged index file can hold — it is not, and the caller must drop it.
func (a *arrays[H, D]) scan(x *Index, pairs [][2]graph.Vertex, keys []uint64, hub []graph.Dist) {
	cur := graph.Vertex(-1)
	var sh []H         // hubs of tail(cur), the entries of hub now set
	var srow []D       // head row of cur
	var sbits []uint64 // bitmap row of cur
	var smid []D       // and its packed distances
	for ki, k := range keys {
		i, s := uint64(uint32(k)), graph.Vertex(k>>32)
		t := pairs[i][1]
		if s == t {
			keys[ki] = i << 32
			continue
		}
		if s != cur {
			for _, h := range sh {
				hub[h] = graph.Inf
			}
			var sd []D
			sh, sd = tail(x, a, s)
			for j, h := range sh {
				hub[h] = graph.Dist(sd[j])
			}
			sbits, smid = mid(x, a, s)
			srow, cur = row(x, a, s), s
		}
		th, td := tail(x, a, t)
		tbits, tmid := mid(x, a, t)
		md, _ := midMin[distOnly](sbits, smid, tbits, tmid, nil)
		keys[ki] = i<<32 | uint64(min(minOver(hub, th, td), md, rowMin(srow, row(x, a, t))))
	}
	for _, h := range sh {
		hub[h] = graph.Inf
	}
	// One pin covers every label read above.
	runtime.KeepAlive(x)
}

// minOver returns min over j of hub[hubs[j]] + dists[j], saturating at
// graph.Inf. The sum is taken in 64 bits, which is what makes it equal
// to the merge's minimum over common hubs: a hub the source does not
// have contributes at least Inf — hub is 4 bytes wide at every width of
// dists — and so does any sum of two 4-byte distances that reaches it
// (the argument of Probe.Covers). The loop has no
// data-dependent branch: min compiles to a conditional move. (A second
// accumulator bought nothing, in cache or out: the loop waits on its
// loads.) The index into hub stays bounds-checked — that check is the
// only thing between a damaged file's hub id and someone else's memory.
func minOver[H hubID, D distance](hub []graph.Dist, hubs []H, dists []D) graph.Dist {
	dists = dists[:len(hubs)]
	best := uint64(graph.Inf)
	for j, h := range hubs {
		best = min(best, uint64(hub[h])+uint64(dists[j]))
	}
	return graph.Dist(best)
}
