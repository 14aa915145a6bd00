package label

import (
	"math/bits"

	"parapll/internal/graph"
)

// mid.go is the middle tier's share of QUERY(s,t,L): the hubs too rare
// for a head column and too common to be worth a hub id in every label
// they are in. Such a hub is one bit in every vertex's bitmap row,
// and a vertex's distances to the hubs whose bits are set are packed in
// column order, so entry i of the run belongs to the i-th set bit.

// midMin returns the minimum of ad[i] + bd[j] over the columns set in
// both bitmap rows, i and j the column's rank among the set bits of its
// row, saturating at graph.Inf — and, from withHub up, the first (so
// smallest-hub) column achieving it, -1 when the rows share none or
// under distOnly. One AND finds a word's common columns; the rank of one
// is the count of set bits in the words before (carried along) plus a
// popcount of the bits below it in its own word. On the benchmark's p2p
// index that is 13 words and ~20 common columns a pair where the merge
// made ~250 three-way compares over the same entries.
//
// The sum is taken in 64 bits and clamped, as in rowMin. Both runs are
// indexed bounds-checked, which is the kernel's whole defence against a
// damaged file: a row with more set bits than its run has entries cannot
// read past the run. Like merge it pins nothing; callers keep the owner
// of mapping-aliased rows reachable across the call. ex is written only
// under counting and may be nil otherwise.
func midMin[M mode, D distance](ab []uint64, ad []D, bb []uint64, bd []D, ex *Explain) (graph.Dist, int) {
	var m M
	bb = bb[:len(ab)]
	best, col := uint64(^D(0)), -1
	ra, rb := 0, 0 // set bits in the words before w, per row
	for w, a := range ab {
		b := bb[w]
		for common := a & b; common != 0; common &= common - 1 {
			below := common&-common - 1
			sum := uint64(ad[ra+bits.OnesCount64(a&below)]) + uint64(bd[rb+bits.OnesCount64(b&below)])
			if len(m) == 0 {
				best = min(best, sum)
			} else if sum < best {
				best, col = sum, w<<6+bits.TrailingZeros64(common)
			}
			if len(m) == 2 {
				ex.MidHits++
			}
		}
		ra += bits.OnesCount64(a)
		rb += bits.OnesCount64(b)
	}
	return clamp[D](best), col
}
