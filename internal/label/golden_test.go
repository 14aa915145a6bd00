package label_test

import (
	"fmt"
	"math/rand"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/pll"
)

// TestExplainCountersGolden pins what the kernel counts, not just what
// it answers: the sums of every Explain counter and the Algo/Swapped
// histogram over 2000 seeded pairs on a generated power-law graph,
// recorded under the residual weighted-degree sequence
// (dist, the sum of the answers, is what the merge alone gave before the
// head and bitmap tiers, and no order change moves it). The
// benchmark's
// label.hubs_probed_per_query and label.gallop_frac are derived from
// these, so a kernel edit that moves where a counter is bumped fails
// here instead of drifting a per-layer row.
func TestExplainCountersGolden(t *testing.T) {
	g := gen.ChungLu(1500, 6000, 2.2, 18)
	x := pll.Build(g, pll.Options{})
	n := g.NumVertices()
	r := rand.New(rand.NewSource(18))
	var headSlots, midWords, midHits, hubsProbed, commonHubs, linearSteps, gallopProbes, binarySteps int
	var distSum uint64
	hist := map[string]int{}
	for q := 0; q < 2000; q++ {
		ex := x.QueryExplain(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
		headSlots += ex.HeadSlots
		midWords += ex.MidWords
		midHits += ex.MidHits
		hubsProbed += ex.HubsProbed
		commonHubs += ex.CommonHubs
		linearSteps += ex.LinearSteps
		gallopProbes += ex.GallopProbes
		binarySteps += ex.BinarySteps
		if ex.Reachable {
			distSum += uint64(ex.Dist)
		}
		key := ex.Algo
		if ex.Swapped {
			key += "/swapped"
		}
		hist[key]++
	}
	got := fmt.Sprintf("head=%d words=%d hits=%d probed=%d common=%d linear=%d gallop=%d binary=%d dist=%d hist=%v",
		headSlots, midWords, midHits, hubsProbed, commonHubs, linearSteps, gallopProbes, binarySteps, distSum, hist)
	const want = "head=11988 words=3996 hits=5535 probed=10699 common=71 linear=10631 gallop=190 binary=156 dist=17414 " +
		"hist=map[empty:106 empty/swapped:100 gallop:44 gallop/swapped:36 linear:972 linear/swapped:740 self:2]"
	if got != want {
		t.Fatalf("counters over 2000 pairs:\n got %s\nwant %s", got, want)
	}
}
