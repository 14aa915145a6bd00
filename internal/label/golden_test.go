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
// recorded before the seven merge loops became one. The benchmark's
// label.hubs_probed_per_query and label.gallop_frac are derived from
// these, so a kernel edit that moves where a counter is bumped fails
// here instead of drifting a per-layer row.
func TestExplainCountersGolden(t *testing.T) {
	g := gen.ChungLu(1500, 6000, 2.2, 18)
	x := pll.Build(g, pll.Options{})
	n := g.NumVertices()
	r := rand.New(rand.NewSource(18))
	var hubsProbed, commonHubs, linearSteps, gallopProbes, binarySteps int
	var distSum uint64
	hist := map[string]int{}
	for q := 0; q < 2000; q++ {
		ex := x.QueryExplain(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
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
	got := fmt.Sprintf("probed=%d common=%d linear=%d gallop=%d binary=%d dist=%d hist=%v",
		hubsProbed, commonHubs, linearSteps, gallopProbes, binarySteps, distSum, hist)
	const want = "probed=67031 common=13238 linear=72715 gallop=459 binary=356 dist=17414 " +
		"hist=map[gallop:64 gallop/swapped:51 linear:1003 linear/swapped:880 self:2]"
	if got != want {
		t.Fatalf("counters over 2000 pairs:\n got %s\nwant %s", got, want)
	}
}
