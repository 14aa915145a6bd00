package label

import (
	"runtime"
	"time"

	"parapll/internal/graph"
)

// explain.go is the instrumented *cold-path sibling* of the merge.go
// query kernel: same dispatch, same loops, same answers, plus counters
// that attribute where a query's work went. It exists for diagnostics
// (`/debug/explain`, `parapll-query -explain`) and deliberately does
// NOT share code with the hot kernel — folding counters into merge.go
// would tax the multiply-by-millions path, and an explain that runs a
// *different* algorithm would lie about costs. The equivalence tests
// in explain_test.go hold the two in lockstep: any change to merge.go's
// dispatch or loops must be mirrored here or the randomized comparison
// fails.

// Explain is the cost-attribution record for one query. Counters are
// defined by the kernel's actual work:
//
//   - HubsProbed: hub ids inspected — three-way dispatch iterations plus
//     equal-stretch pairs in the linear walk; short-run hubs located in
//     the gallop.
//   - CommonHubs: hub ids present in both labels (candidate meeting
//     hubs whose distance sums were compared).
//   - LinearSteps: pointer advances of the two-pointer walk (i and j
//     increments), zero for galloped queries.
//   - GallopProbes / BinarySteps: exponential-probe doublings and
//     binary-search halvings, zero for linear queries.
type Explain struct {
	S         graph.Vertex `json:"s"`
	T         graph.Vertex `json:"t"`
	Dist      graph.Dist   `json:"-"`           // graph.Inf when unreachable; wire encodings re-encode it
	Hub       graph.Vertex `json:"meeting_hub"` // -1 when disconnected
	Reachable bool         `json:"reachable"`

	SLabelLen int `json:"s_label_len"`
	TLabelLen int `json:"t_label_len"`

	// Algo is the kernel strategy the dispatch chose: "self" (s == t,
	// no merge), "empty" (a label list is empty), "linear" (two-pointer
	// walk) or "gallop" (length ratio >= 8 — probe the long run).
	Algo string `json:"algo"`
	// Swapped reports that the merge iterated t's label as the short
	// run (the kernel always puts the shorter run first).
	Swapped bool `json:"swapped"`

	HubsProbed   int `json:"hubs_probed"`
	CommonHubs   int `json:"common_hubs"`
	LinearSteps  int `json:"linear_steps"`
	GallopProbes int `json:"gallop_probes"`
	BinarySteps  int `json:"binary_steps"`

	MergeNanos int64 `json:"merge_ns"`
}

// QueryExplain answers exactly like Query/QueryWithHub — same distance,
// same meeting hub, same out-of-range panic — while recording the cost
// breakdown. It is a cold path: it allocates (the returned struct is
// by-value but the timing call may) and must never be used on the
// serving hot path.
func (x *Index) QueryExplain(s, t graph.Vertex) Explain {
	x.checkPair(s, t)
	ex := Explain{S: s, T: t, Hub: -1, Dist: graph.Inf}
	if s == t {
		ex.Dist, ex.Hub, ex.Reachable, ex.Algo = 0, s, true, "self"
		ex.SLabelLen = x.LabelSize(s)
		ex.TLabelLen = ex.SLabelLen
		return ex
	}
	slo, shi := x.off[s], x.off[s+1]
	tlo, thi := x.off[t], x.off[t+1]
	ex.SLabelLen = int(shi - slo)
	ex.TLabelLen = int(thi - tlo)

	ah, ad := x.hubs[slo:shi], x.dists[slo:shi]
	bh, bd := x.hubs[tlo:thi], x.dists[tlo:thi]
	// Mirror of MergeRuns' dispatch: shorter run first, then empty /
	// gallop / linear.
	if len(ah) > len(bh) {
		ah, bh = bh, ah
		ad, bd = bd, ad
		ex.Swapped = true
	}
	t0 := time.Now()
	switch {
	case len(ah) == 0:
		ex.Algo = "empty"
	case len(bh) >= gallopRatio*len(ah):
		ex.Algo = "gallop"
		ex.Dist, ex.Hub = gallopMergeExplain(ah, ad, bh, bd, &ex)
	default:
		ex.Algo = "linear"
		ex.Dist, ex.Hub = linearMergeExplain(ah, ad, bh, bd, &ex)
	}
	ex.MergeNanos = time.Since(t0).Nanoseconds()
	ex.Reachable = ex.Dist != graph.Inf
	runtime.KeepAlive(x) // the runs alias x's possibly-mmap'd arrays
	return ex
}

// linearMergeExplain is linearMerge with counters (see merge.go).
func linearMergeExplain(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist, ex *Explain) (graph.Dist, graph.Vertex) {
	best := graph.Inf
	hub := graph.Vertex(-1)
	na, nb := len(ah), len(bh)
	i, j := 0, 0
	for i < na && j < nb {
		a, b := ah[i], bh[j]
		ex.HubsProbed++
		if a < b {
			i++
			ex.LinearSteps++
			continue
		}
		if a > b {
			j++
			ex.LinearSteps++
			continue
		}
		for {
			ex.CommonHubs++
			if d := graph.AddDist(ad[i], bd[j]); d < best {
				best = d
				hub = a
			}
			i++
			j++
			ex.LinearSteps += 2
			if i >= na || j >= nb {
				return best, hub
			}
			a, b = ah[i], bh[j]
			ex.HubsProbed++
			if a != b {
				break
			}
		}
	}
	return best, hub
}

// gallopMergeExplain is gallopMerge with counters (see merge.go).
func gallopMergeExplain(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist, ex *Explain) (graph.Dist, graph.Vertex) {
	best := graph.Inf
	hub := graph.Vertex(-1)
	nb := len(bh)
	j := 0
	for i := 0; i < len(ah); i++ {
		target := ah[i]
		ex.HubsProbed++
		lo, step := j, 1
		for lo+step < nb && bh[lo+step] < target {
			lo += step
			step <<= 1
			ex.GallopProbes++
		}
		hi := lo + step
		if hi > nb {
			hi = nb
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			ex.BinarySteps++
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
			ex.CommonHubs++
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
