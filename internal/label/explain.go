package label

import (
	"time"

	"parapll/internal/graph"
)

// explain.go is the diagnostics face of the lone-pair kernel: QueryExplain
// runs the very function QueryWithHub runs — pair, its midMin and merge
// instantiated with the counting mode — so the counters attribute
// the work the serving path does, not the work of a look-alike
// (`/debug/explain`, `parapll-query -explain`).

// Explain is the cost-attribution record for one query. Counters are
// defined by the kernel's actual work:
//
//   - HeadSlots: head columns scanned — the index's K for every pair but
//     s == t, whatever the two labels hold.
//   - MidWords / MidHits: bitmap words ANDed — the index's W, likewise —
//     and the columns set in both rows, each ranked in both and summed.
//     The counters below are the tail merge's and include neither tier's.
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

	// SLabelLen and TLabelLen count whole labels, head and mid entries
	// included.
	SLabelLen int `json:"s_label_len"`
	TLabelLen int `json:"t_label_len"`

	// Algo is the strategy the dispatch chose for the tail merge: "self"
	// (s == t, no work at all), "empty" (a tail run is empty: the head
	// and the middle tier answer), "linear" (two-pointer walk) or
	// "gallop" (length ratio >= 8 — probe the long run).
	Algo string `json:"algo"`
	// Swapped reports that the merge iterated t's tail as the short
	// run (the kernel always puts the shorter run first).
	Swapped bool `json:"swapped"`

	HeadSlots    int `json:"head_slots"`
	MidWords     int `json:"mid_words"`
	MidHits      int `json:"mid_hits"`
	HubsProbed   int `json:"hubs_probed"`
	CommonHubs   int `json:"common_hubs"`
	LinearSteps  int `json:"linear_steps"`
	GallopProbes int `json:"gallop_probes"`
	BinarySteps  int `json:"binary_steps"`

	MergeNanos int64 `json:"merge_ns"`
}

// QueryExplain answers exactly like Query/QueryWithHub — same distance,
// same meeting hub, same out-of-range panic — while recording the cost
// breakdown. It allocates nothing, but it reads the clock twice and
// bumps a counter per kernel step: diagnostics only, never the serving
// hot path.
func (x *Index) QueryExplain(s, t graph.Vertex) Explain {
	x.checkPair(s, t)
	ex := Explain{S: s, T: t, Hub: -1, Dist: graph.Inf}
	if s == t {
		ex.Dist, ex.Hub, ex.Reachable, ex.Algo = 0, s, true, "self"
		ex.SLabelLen = x.LabelSize(s)
		ex.TLabelLen = ex.SLabelLen
		return ex
	}
	ex.SLabelLen, ex.TLabelLen = x.LabelSize(s), x.LabelSize(t)
	ex.HeadSlots, ex.MidWords = len(x.headHubs), midWords(len(x.midHubs))
	t0 := time.Now()
	ex.Dist, ex.Hub = query[counting](x, s, t, &ex)
	ex.MergeNanos = time.Since(t0).Nanoseconds()
	ex.Reachable = ex.Dist != graph.Inf
	return ex
}
