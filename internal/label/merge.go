package label

import "parapll/internal/graph"

// merge.go is the QUERY(s,t,L) kernel for a lone pair: the minimum of
// sd[i]+td[j] over common hubs of two hub-sorted label runs — for an
// Index the two tails, since the hubs in more than half the labels have
// left for the dense head and its own loop (rowMin, index.go). It is
// written once — merge — and every per-pair serving shape (distance
// only, distance + meeting hub, distance + hub + cost counters) is an
// instantiation of it; a batch of pairs has scratch memory to spend and
// takes the other kernel, batch.go. This is the multiply-by-millions
// inner loop, so it gets two specializations the plain two-pointer walk
// lacks:
//
//   - an unrolled equal-hub fast path: high-ranked hubs appear in many
//     label lists, so two runs often share a stretch of identical hub
//     ids. The unrolled loop consumes such a stretch with one compare per
//     pair instead of re-entering the three-way dispatch each iteration.
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
// call (Query, QueryWithHub and QueryExplain pin per call).

// gallopRatio is the length asymmetry at which merge switches from the
// linear walk to galloping probes over the longer run. 8 is the
// conventional crossover (TimSort uses 7): below it the probe's branch
// mispredictions cost more than the skipped comparisons save.
const gallopRatio = 8

// mode says, at compile time, what merge records beyond the distance.
// It is carried by an array *length*: the three types have distinct
// shapes, so the compiler stencils merge once per mode with len(m) a
// constant, and every `if len(m) >= 1` below is either unconditional or
// gone — the distance-only instantiation contains no hub store and no
// counter. A probe interface or a func value would not do that: methods
// on a type parameter are dictionary calls in Go 1.24 and cost the
// single query +55 % when tried.
type mode interface{ distOnly | withHub | counting }

type (
	distOnly [0]struct{} // Query
	withHub  [1]struct{} // QueryWithHub, MergeRuns: also the meeting hub
	counting [2]struct{} // QueryExplain: also ex's dispatch and work counters
)

// merge returns the minimum distance over common hubs of the two runs
// and — from withHub up — the hub achieving it (graph.Inf, -1 when the
// runs intersect nowhere; -1 always under distOnly). Both runs must be
// strictly increasing in hub id — the Index invariant established by
// finalize and the readers. Sums are taken in 64 bits and clamped at the
// end, like every kernel's (see Index). ex is written only under
// counting and may be nil otherwise.
func merge[M mode, H hubID, D distance](ah []H, ad []D, bh []H, bd []D, ex *Explain) (graph.Dist, graph.Vertex) {
	var m M
	// Intersection is symmetric: put the shorter run first so the
	// gallop always iterates the short side.
	if len(ah) > len(bh) {
		ah, bh = bh, ah
		ad, bd = bd, ad
		if len(m) == 2 {
			ex.Swapped = true
		}
	}
	best := uint64(^D(0))
	hub := graph.Vertex(-1)
	na, nb := len(ah), len(bh)
	switch {
	case na == 0:
		// no common hubs possible; best stays Inf
		if len(m) == 2 {
			ex.Algo = "empty"
		}

	case nb >= gallopRatio*na:
		// Gallop: iterate the short run and locate each of its hubs in
		// the long run with an exponential probe from the previous
		// position followed by a binary search over the probed window.
		if len(m) == 2 {
			ex.Algo = "gallop"
		}
		j := 0
		for i := 0; i < na; i++ {
			target := ah[i]
			if len(m) == 2 {
				ex.HubsProbed++
			}
			// Exponential probe: find a window (lo, lo+step] known to
			// bracket the first element >= target.
			lo, step := j, 1
			for lo+step < nb && bh[lo+step] < target {
				lo += step
				step <<= 1
				if len(m) == 2 {
					ex.GallopProbes++
				}
			}
			hi := lo + step
			if hi > nb {
				hi = nb
			}
			// Binary search for the first index in [lo, hi) with hub >= target.
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if len(m) == 2 {
					ex.BinarySteps++
				}
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
				if len(m) == 2 {
					ex.CommonHubs++
				}
				if d := uint64(ad[i]) + uint64(bd[j]); d < best {
					best = d
					if len(m) >= 1 {
						hub = graph.Vertex(target)
					}
				}
				j++
				if j >= nb {
					break
				}
			}
		}

	default:
		// Linear: the two-pointer walk with the equal-hub stretch
		// unrolled into its own tight loop.
		if len(m) == 2 {
			ex.Algo = "linear"
		}
		i, j := 0, 0
	walk:
		for i < na && j < nb {
			a, b := ah[i], bh[j]
			if len(m) == 2 {
				ex.HubsProbed++
			}
			// Plain compare-and-branch dispatch. What it costs was measured
			// on whole labels, before the head took the commonest hubs
			// (BenchmarkQueryKernel's -flat rows, 2.1 GHz Xeon, 2000 uniform
			// pairs): on the p2p index 2.7-3.0 us for 444 probed hubs of
			// which 110 are common, ~13 cycles a step; on the road index
			// 0.82-0.93 us for 194 probed, 126 common, ~9.5. Both are several times a
			// predicted branch: which run advances is a coin toss wherever
			// the two labels interleave, and p2p labels interleave most. A
			// conditional-move lowering would not fix that — it chains every
			// step through the compare — but a batch can avoid the three-way
			// compare altogether (batch.go), which is why QueryBatch does
			// not come here.
			if a < b {
				i++
				if len(m) == 2 {
					ex.LinearSteps++
				}
				continue
			}
			if a > b {
				j++
				if len(m) == 2 {
					ex.LinearSteps++
				}
				continue
			}
			// Equal-hub fast path: consume the whole matching stretch without
			// re-testing the three-way dispatch.
			for {
				if len(m) == 2 {
					ex.CommonHubs++
					ex.LinearSteps += 2
				}
				if d := uint64(ad[i]) + uint64(bd[j]); d < best {
					best = d
					if len(m) >= 1 {
						hub = graph.Vertex(a)
					}
				}
				i++
				j++
				if i >= na || j >= nb {
					break walk
				}
				a, b = ah[i], bh[j]
				if len(m) == 2 {
					ex.HubsProbed++
				}
				if a != b {
					break
				}
			}
		}
	}
	return clamp[D](best), hub
}

// MergeRuns is the kernel for callers that hold their own hub-sorted
// struct-of-arrays runs (dynamic): the minimum distance over
// common hubs and the hub achieving it, (graph.Inf, -1) when the runs
// share none. Runs that alias a mapped Index must be pinned by the
// caller across the call.
func MergeRuns(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) (graph.Dist, graph.Vertex) {
	return merge[withHub](ah, ad, bh, bd, nil)
}
