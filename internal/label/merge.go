package label

import (
	"runtime"

	"parapll/internal/graph"
)

// merge.go is the serving-side QUERY(s,t,L) kernel: the minimum of
// sd[i]+td[j] over common hubs of two hub-sorted label runs. This is
// the multiply-by-millions inner loop, so it gets two specializations
// the plain two-pointer walk lacks:
//
//   - an unrolled equal-hub fast path: the highest-ranked hubs appear
//     in almost every label list, so the two runs typically open with a
//     long stretch of identical hub ids. The unrolled loop consumes
//     such a stretch with one compare per pair instead of re-entering
//     the three-way dispatch each iteration.
//
//   - galloping probes for asymmetric runs: when one run is >=
//     gallopRatio x longer, walking it linearly inspects mostly
//     irrelevant hubs. Iterating the short run and locating each hub in
//     the long one with an exponential probe + binary search does
//     O(short * log(long/short)) work instead of O(long).
//
// The kernel is allocation-free and reads only within the given slice
// bounds. It deliberately does NOT pin an mmap-backed owner: callers
// that pass mapping-aliased runs keep the owner reachable across the
// call (Query pins per call, QueryBatch pins once per chunk).

// gallopRatio is the length asymmetry at which MergeRuns switches from
// the linear walk to galloping probes over the longer run. 8 is the
// conventional crossover (TimSort uses 7): below it the probe's branch
// mispredictions cost more than the skipped comparisons save.
const gallopRatio = 8

// queryDistAt is the distance-only kernel behind Query and QueryBatch —
// the overwhelmingly common call shape. It duplicates MergeRuns'
// dispatch and loops minus the meeting-hub bookkeeping: dropping the
// hub store and the second return value is worth measurable
// nanoseconds on a loop this hot (QueryWithHub keeps the tracking
// variant below). It is addressed by offsets into the index arrays
// rather than pre-cut slices for the same reason: four slice-header
// arguments are twelve words — three of them spill to the stack at
// every call under the register ABI — where the receiver plus four
// offsets all arrive in registers, and the runs are cut here in the
// callee's own frame. The single exit ends with a pin of the receiver,
// so the kernel satisfies the mmap memory model on its own (the pin is
// a free liveness marker, not an instruction). Runs must be strictly
// hub-increasing; no allocation.
func (x *Index) queryDistAt(slo, shi, tlo, thi int64) graph.Dist {
	ah, ad, bh, bd := x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi]
	if len(ah) > len(bh) {
		ah, bh = bh, ah
		ad, bd = bd, ad
	}
	best := graph.Inf
	switch {
	case len(ah) == 0:
		// no common hubs possible; best stays Inf
	case len(bh) >= gallopRatio*len(ah):
		best = gallopDist(ah, ad, bh, bd)
	default:
		na, nb := len(ah), len(bh)
		i, j := 0, 0
	scan:
		for i < na && j < nb {
			a, b := ah[i], bh[j]
			if a < b {
				i++
				continue
			}
			if a > b {
				j++
				continue
			}
			for {
				if d := graph.AddDist(ad[i], bd[j]); d < best {
					best = d
				}
				i++
				j++
				if i >= na || j >= nb {
					break scan
				}
				a, b = ah[i], bh[j]
				if a != b {
					break
				}
			}
		}
	}
	runtime.KeepAlive(x) // the runs alias x's possibly-mmap'd arrays
	return best
}

// gallopDist is gallopMerge without hub tracking (see queryDistAt).
func gallopDist(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) graph.Dist {
	best := graph.Inf
	nb := len(bh)
	j := 0
	for i := 0; i < len(ah); i++ {
		target := ah[i]
		lo, step := j, 1
		for lo+step < nb && bh[lo+step] < target {
			lo += step
			step <<= 1
		}
		hi := lo + step
		if hi > nb {
			hi = nb
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bh[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= nb {
			break
		}
		j = lo
		if bh[j] == target {
			if d := graph.AddDist(ad[i], bd[j]); d < best {
				best = d
			}
			j++
			if j >= nb {
				break
			}
		}
	}
	return best
}

// MergeRuns returns the minimum distance over common hubs of the two
// runs and the hub achieving it (graph.Inf, -1 when the runs intersect
// nowhere). Both runs must be strictly increasing in hub id — the
// Index invariant established by NewIndexFromLists and the readers.
func MergeRuns(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) (graph.Dist, graph.Vertex) {
	// Intersection is symmetric: put the shorter run first so the
	// gallop always iterates the short side.
	if len(ah) > len(bh) {
		ah, bh = bh, ah
		ad, bd = bd, ad
	}
	if len(ah) == 0 {
		return graph.Inf, -1
	}
	if len(bh) >= gallopRatio*len(ah) {
		return gallopMerge(ah, ad, bh, bd)
	}
	return linearMerge(ah, ad, bh, bd)
}

// linearMerge is the two-pointer walk with the equal-hub stretch
// unrolled into its own tight loop.
func linearMerge(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) (graph.Dist, graph.Vertex) {
	best := graph.Inf
	hub := graph.Vertex(-1)
	na, nb := len(ah), len(bh)
	i, j := 0, 0
	for i < na && j < nb {
		a, b := ah[i], bh[j]
		// Plain compare-and-branch dispatch: label runs advance in long
		// predictable stretches, so branches are almost always predicted;
		// a conditional-move lowering would chain every iteration through
		// the compare's data dependency instead.
		if a < b {
			i++
			continue
		}
		if a > b {
			j++
			continue
		}
		// Equal-hub fast path: consume the whole matching stretch without
		// re-testing the three-way dispatch.
		for {
			if d := graph.AddDist(ad[i], bd[j]); d < best {
				best = d
				hub = a
			}
			i++
			j++
			if i >= na || j >= nb {
				return best, hub
			}
			a, b = ah[i], bh[j]
			if a != b {
				break
			}
		}
	}
	return best, hub
}

// gallopMerge iterates the short run and locates each of its hubs in
// the long run with an exponential probe from the previous position
// followed by a binary search over the probed window.
func gallopMerge(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) (graph.Dist, graph.Vertex) {
	best := graph.Inf
	hub := graph.Vertex(-1)
	nb := len(bh)
	j := 0
	for i := 0; i < len(ah); i++ {
		target := ah[i]
		// Exponential probe: find a window (lo, lo+step] known to
		// bracket the first element >= target.
		lo, step := j, 1
		for lo+step < nb && bh[lo+step] < target {
			lo += step
			step <<= 1
		}
		hi := lo + step
		if hi > nb {
			hi = nb
		}
		// Binary search for the first index in [lo, hi) with hub >= target.
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bh[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= nb {
			break // the long run is exhausted: no more partners exist
		}
		j = lo
		if bh[j] == target {
			if d := graph.AddDist(ad[i], bd[j]); d < best {
				best = d
				hub = target
			}
			j++
			if j >= nb {
				break
			}
		}
	}
	return best, hub
}
