package core

import (
	"math/bits"
	"strconv"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/task"
	"parapll/internal/trace"
)

// Batched is the vertex-centric engine (after "PLL Meets Vertex-Centric",
// arXiv 1906.12018): each worker claims a batch of up to 64 roots from
// the task manager and propagates all of them together as one shared
// frontier instead of running one pruned Dijkstra per root.
//
// The frontier is a Dial-style bucket queue indexed by tentative
// distance (one bucket per distance value, circular over the maximum
// edge weight), so every (vertex, root) pair settles exactly once at
// its final distance — the same settle/prune/expand count as the
// per-root Dijkstra, with no priority-queue ops. The batching win is in
// the memory traffic: all batch roots that settle a vertex u at the
// same distance are served by ONE label snapshot and ONE adjacency
// walk — the prune test and the relaxations run per root over data
// already in cache, where the per-root engine re-loads L(u) and u's
// edges for every root separately.
//
// The prune test during propagation is exactly the per-root engine's
// label.Probe test against the growing shared index, with the same
// Proposition-1 justification: a stale snapshot only weakens pruning.
// A settled distance can exceed the true distance when a shorter path
// ran through a pruned vertex; the per-root engine has the identical
// property (a pruned vertex is never expanded) and the identical
// resolution — every settled value is the length of a real path, and
// such a pair is 2-hop covered by the labels that justified the prune,
// so the QUERY minimum still answers it exactly.
//
// Labels are committed only after the batch's buckets drain, from the
// prune decisions recorded at settle time — exactly the store state a
// per-root search would have pruned against. The commit pass walks the
// batch's roots in global-rank order and additionally prunes
// (root, u) pairs covered by a batch peer's just-committed labels: the
// certificate is two actual index entries (the peer's label at this
// root and at u), so the prune is backed by a real 2-hop cover in the
// final index, at O(batch) cost instead of a label re-scan.
type Batched struct {
	// BatchSize is how many roots a worker propagates per shared
	// frontier, clamped to [1, 64] (the settle masks are one uint64);
	// <= 0 picks DefaultBatchSize. Each worker holds two B×n distance
	// arrays (8·B bytes per vertex), so memory scales with
	// Threads×BatchSize×NumVertices. Workers ramp up to it (1, 2, 4, …)
	// so the first, most expensive roots — which have no index to prune
	// against yet — run near per-root, and the cheap tail gets the full
	// amortization.
	BatchSize int
}

// DefaultBatchSize is the roots-per-frontier used when Batched.BatchSize
// is unset. Benchmarks (BenchmarkBatched) put the sweet spot at 4–16:
// the shared-settle amortization saturates within a few roots, while
// the B-stride distance rows cost cache locality linearly in B.
const DefaultBatchSize = 8

// maxBatchSize is the hard cap: one uint64 settle mask per vertex, and
// 6 bits of root slot in each bucket item.
const maxBatchSize = 64

// maxBuckets caps the Dial bucket count. Graphs whose maximum edge
// weight exceeds it (rare: every bundled dataset is <= 282) route
// out-of-window pushes through the far list instead of growing the
// bucket array without bound.
const maxBuckets = 1 << 16

// Name implements Engine.
func (Batched) Name() string { return EngineBatched }

// EffectiveBatchSize returns the clamped roots-per-frontier Run will
// use (reporting surface for benchmarks and CLIs).
func (b Batched) EffectiveBatchSize() int { return b.batchSize() }

// batchSize returns the clamped roots-per-frontier.
func (b Batched) batchSize() int {
	switch {
	case b.BatchSize <= 0:
		return DefaultBatchSize
	case b.BatchSize > maxBatchSize:
		return maxBatchSize
	default:
		return b.BatchSize
	}
}

// Run implements Engine.
func (b Batched) Run(g *graph.Graph, mgr task.Manager, store LabelStore, cfg RunConfig) []int64 {
	phase := cfg.Phase
	if phase == "" {
		phase = "build"
	}
	tr := cfg.Tracer
	var idAcquire, idPropagate, idCommit trace.ID
	if tr.Enabled() {
		idAcquire = tr.Intern("batch acquire", "worker")
		idPropagate = tr.Intern("batch propagate", "roots", "buckets", "worker")
		idCommit = tr.Intern("batch commit", "roots", "added", "worker")
	}
	perWorker := make([]int64, mgr.Workers())
	runPool(mgr.Workers(), phase, func(w int) {
		bw := newBatchWorker(g, b.batchSize())
		bw.run(mgr, store, cfg, w, perWorker, idAcquire, idPropagate, idCommit)
	})
	return perWorker
}

// bucketItem packs a (vertex, root slot) pair: vertex<<6 | slot.
type bucketItem uint64

func makeItem(v graph.Vertex, slot int) bucketItem {
	return bucketItem(uint64(v)<<6 | uint64(slot))
}

func (it bucketItem) vertex() graph.Vertex { return graph.Vertex(it >> 6) }
func (it bucketItem) slot() int            { return int(it & 63) }

// batchWorker is one worker's reusable frontier state. All arrays are
// reset in time proportional to the batch's reach (touched vertices and
// scattered hubs), never O(n·B), so cheap tail batches stay cheap. Each
// slot holds two n-sized arrays, its distance column and its probe's
// scatter array.
type batchWorker struct {
	g *graph.Graph
	n int
	B int // row stride; batches may be smaller while ramping

	dist   []graph.Dist   // dist[u*B+i]: tentative d(roots[i], u); Inf when unreached
	probes []*label.Probe // probes[i]: roots[i]'s side of the prune test

	buckets   [][]bucketItem // Dial queue, circular over distance mod len
	spare     []bucketItem   // recycled bucket backing array
	far       []bucketItem   // pushes past the circular window (weight > maxBuckets)
	remaining int            // items sitting in buckets
	wbase     graph.Dist     // distance of the bucket currently draining

	pend  []uint64       // per-vertex slot mask: settle grouping, then commit's added-here mask
	cov   []uint64       // cov[u] bit i: (u, slot i) was covered at settle (no label)
	verts []graph.Vertex // scratch vertex list for one bucket's grouping

	seen    []bool         // seen[u]: u is on touched
	touched []graph.Vertex // vertices with any finite dist this batch

	roots    []graph.Vertex       // current batch
	poss     []int                // global sequence positions of roots
	slotWork []int64              // per-slot work ops (settles + relaxations + label scans)
	slotOf   map[graph.Vertex]int // batch roots' slots, for peer-certificate tracking
	peerAt   [maxBatchSize]uint64 // peerAt[i] bit j: peer j's label was added at roots[i]
}

func newBatchWorker(g *graph.Graph, B int) *batchWorker {
	n := g.NumVertices()
	// One bucket per distance value up to the maximum edge weight: a
	// relaxation from the draining bucket lands at most maxW ahead, so
	// maxW+1 circular buckets never collide distance classes.
	maxW := graph.Dist(0)
	for u := 0; u < n; u++ {
		_, ws := g.Neighbors(graph.Vertex(u))
		for _, w := range ws {
			if w > maxW {
				maxW = w
			}
		}
	}
	nb := int(maxW) + 1
	if maxW >= maxBuckets {
		nb = maxBuckets
	}
	bw := &batchWorker{
		g:        g,
		n:        n,
		B:        B,
		dist:     make([]graph.Dist, n*B),
		buckets:  make([][]bucketItem, nb),
		pend:     make([]uint64, n),
		cov:      make([]uint64, n),
		seen:     make([]bool, n),
		slotOf:   make(map[graph.Vertex]int, B),
		probes:   make([]*label.Probe, B),
		roots:    make([]graph.Vertex, B),
		poss:     make([]int, B),
		slotWork: make([]int64, B),
	}
	for i := range bw.dist {
		bw.dist[i] = graph.Inf
	}
	for i := range bw.probes {
		bw.probes[i] = label.NewProbe(n)
	}
	return bw
}

// run is the worker loop: claim a batch, propagate, commit, reset.
func (bw *batchWorker) run(mgr task.Manager, store LabelStore, cfg RunConfig, w int, perWorker []int64, idAcquire, idPropagate, idCommit trace.ID) {
	view := workerView(store, w, mgr.Workers())
	tr := cfg.Tracer
	var buf *trace.Buf
	if tr.Enabled() {
		buf = tr.Buf(w)
		tr.SetThreadName(w, "worker "+strconv.Itoa(w))
	}
	ramp := 1
	for {
		t0 := tr.Now()
		k := task.NextBatch(mgr, w, ramp, bw.roots, bw.poss)
		if k == 0 {
			return
		}
		if ramp < bw.B {
			ramp *= 2
			if ramp > bw.B {
				ramp = bw.B
			}
		}
		p0 := tr.Now()
		if buf != nil {
			buf.Span(idAcquire, t0, p0, uint64(w))
		}
		drained := bw.propagate(view, k)
		c0 := tr.Now()
		if buf != nil {
			buf.Span(idPropagate, p0, c0, uint64(k), uint64(drained), uint64(w))
		}
		added := bw.commit(view, cfg, k, perWorker, w)
		if buf != nil {
			buf.Span(idCommit, c0, tr.Now(), uint64(k), uint64(added), uint64(w))
		}
		bw.reset(k)
	}
}

// push queues (v, slot) at distance d. Pushes beyond the circular
// window (only possible when an edge weight exceeds maxBuckets) go to
// the far list and re-enter once the window reaches them.
func (bw *batchWorker) push(v graph.Vertex, slot int, d graph.Dist) {
	if int64(d)-int64(bw.wbase) >= int64(len(bw.buckets)) {
		bw.far = append(bw.far, makeItem(v, slot))
		return
	}
	idx := int(d) % len(bw.buckets)
	bw.buckets[idx] = append(bw.buckets[idx], makeItem(v, slot))
	bw.remaining++
}

// refillFromFar moves far items whose current distance fits the window
// starting at the smallest far distance, and returns that distance.
// Only reachable on graphs with edge weights >= maxBuckets.
func (bw *batchWorker) refillFromFar() graph.Dist {
	B := bw.B
	dmin := graph.Inf
	for _, it := range bw.far {
		if dd := bw.dist[int(it.vertex())*B+it.slot()]; dd < dmin {
			dmin = dd
		}
	}
	bw.wbase = dmin
	keep := bw.far[:0]
	for _, it := range bw.far {
		dd := bw.dist[int(it.vertex())*B+it.slot()]
		if int64(dd)-int64(dmin) < int64(len(bw.buckets)) {
			idx := int(dd) % len(bw.buckets)
			bw.buckets[idx] = append(bw.buckets[idx], it)
			bw.remaining++
		} else {
			keep = append(keep, it)
		}
	}
	bw.far = keep
	return dmin
}

// propagate drains the batch's bucket queue and returns the number of
// bucket loads drained. On return every finite dist[u*B+i] is the
// length of a real path from roots[i] to u, settled in distance order —
// exact unless a vertex on a shorter path was pruned (in which case the
// pair is 2-hop covered; see the type comment).
func (bw *batchWorker) propagate(view LabelStore, k int) int {
	B := bw.B
	bw.wbase = 0
	for i := 0; i < k; i++ {
		bw.slotWork[i] = int64(bw.probes[i].Set(view.Label(bw.roots[i])))
		r := bw.roots[i]
		bw.dist[int(r)*B+i] = 0
		if !bw.seen[r] {
			bw.seen[r] = true
			bw.touched = append(bw.touched, r)
		}
		bw.push(r, i, 0)
	}
	drained := 0
	d := graph.Dist(0)
	for bw.remaining > 0 || len(bw.far) > 0 {
		if bw.remaining == 0 {
			d = bw.refillFromFar()
			continue
		}
		bw.wbase = d
		idx := int(d) % len(bw.buckets)
		// Zero-weight edges push back into the draining bucket, so loop
		// until it stays empty.
		for len(bw.buckets[idx]) > 0 {
			items := bw.buckets[idx]
			bw.buckets[idx] = bw.spare[:0]
			bw.remaining -= len(items)
			drained++
			bw.settleBucket(view, items, d)
			bw.spare = items[:0]
		}
		d++
	}
	return drained
}

// settleBucket settles one bucket's (vertex, slot) pairs at distance d:
// stale entries (improved since push) drop; live entries are grouped by
// vertex so each vertex's label snapshot and adjacency list are loaded
// once for all roots settling it at d — the engine's amortization.
func (bw *batchWorker) settleBucket(view LabelStore, items []bucketItem, d graph.Dist) {
	B := bw.B
	verts := bw.verts[:0]
	for _, it := range items {
		v, i := it.vertex(), it.slot()
		if bw.dist[int(v)*B+i] != d {
			continue // stale: improved to a nearer bucket after this push
		}
		if bw.pend[v] == 0 {
			verts = append(verts, v)
		}
		bw.pend[v] |= 1 << i
	}
	for _, u := range verts {
		m := bw.pend[u]
		bw.pend[u] = 0
		lbl := view.Snapshot(u)
		var survivors uint64
		for mm := m; mm != 0; mm &= mm - 1 {
			i := bits.TrailingZeros64(mm)
			bw.slotWork[i] += int64(bw.probes[i].Width()+len(lbl)) + 1
			if bw.probes[i].Covers(u, lbl, d) {
				continue
			}
			survivors |= 1 << i
		}
		// Record the prune decisions: commit replays them instead of
		// re-scanning L(u), matching the per-root engine, which also
		// decides at settle time and never revisits.
		bw.cov[u] |= m &^ survivors
		if survivors == 0 {
			continue
		}
		ns, ws := bw.g.Neighbors(u)
		for j, v := range ns {
			nd := graph.AddDist(d, ws[j])
			vb := int(v) * B
			for mm := survivors; mm != 0; mm &= mm - 1 {
				i := bits.TrailingZeros64(mm)
				bw.slotWork[i]++
				if nd < bw.dist[vb+i] {
					bw.dist[vb+i] = nd
					if !bw.seen[v] {
						bw.seen[v] = true
						bw.touched = append(bw.touched, v)
					}
					bw.push(v, i, nd)
				}
			}
		}
	}
	bw.verts = verts[:0]
}

// commit walks the batch's roots in global-rank order, replaying the
// settle-time prune decisions and appending the surviving (root, dist)
// entries. A pair uncovered at settle can still be pruned here by a
// peer certificate: peer j committed before slot i whose labels landed
// at both roots[i] and u proves QUERY(roots[i], u) <= d via two entries
// that are really in the index — within-batch pruning at O(batch) cost
// per pair instead of a label re-scan. Returns total labels added.
func (bw *batchWorker) commit(view LabelStore, cfg RunConfig, k int, perWorker []int64, w int) int64 {
	B := bw.B
	for i := 0; i < k; i++ {
		bw.slotOf[bw.roots[i]] = i
	}
	var totalAdded int64
	for i := 0; i < k; i++ {
		r := bw.roots[i]
		rb := int(r) * B
		var added, covered int64
		for _, u := range bw.touched {
			ub := int(u) * B
			d := bw.dist[ub+i]
			if d == graph.Inf {
				continue
			}
			bw.slotWork[i]++
			if bw.cov[u]>>i&1 == 1 {
				covered++
				continue
			}
			peerCovered := false
			for mm := bw.pend[u] & bw.peerAt[i]; mm != 0; mm &= mm - 1 {
				j := bits.TrailingZeros64(mm)
				bw.slotWork[i]++
				if graph.AddDist(bw.dist[rb+j], bw.dist[ub+j]) <= d {
					peerCovered = true
					break
				}
			}
			if peerCovered {
				covered++
				continue
			}
			view.Append(u, r, d)
			added++
			bw.pend[u] |= 1 << i
			if si, ok := bw.slotOf[u]; ok {
				bw.peerAt[si] |= 1 << i
			}
		}
		totalAdded += added
		perWorker[w] += bw.slotWork[i]
		if cfg.Trace != nil {
			pos := bw.poss[i]
			cfg.Trace.AddedPerRoot[pos] = added
			cfg.Trace.PrunedPerRoot[pos] = covered
			cfg.Trace.WorkPerRoot[pos] = bw.slotWork[i]
		}
		cfg.Progress.rootDone(added, covered, bw.slotWork[i])
	}
	return totalAdded
}

// reset clears the batch's footprint in O(reach): distance rows, cov
// and added-here masks of touched vertices, their seen marks, and the
// peer-certificate tracking. The buckets and far list drained during
// propagation; each slot's probe clears itself at its next Set.
func (bw *batchWorker) reset(k int) {
	B := bw.B
	for _, u := range bw.touched {
		ub := int(u) * B
		for i := 0; i < k; i++ {
			bw.dist[ub+i] = graph.Inf
		}
		bw.seen[u] = false
		bw.pend[u] = 0
		bw.cov[u] = 0
	}
	bw.touched = bw.touched[:0]
	for i := 0; i < k; i++ {
		bw.slotWork[i] = 0
		bw.peerAt[i] = 0
		delete(bw.slotOf, bw.roots[i])
	}
}
