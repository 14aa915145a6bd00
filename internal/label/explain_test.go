package label

import (
	"math/rand"
	"testing"

	"parapll/internal/graph"
)

// TestExplainMatchesQueryRandomized runs the three instantiations of
// merge and of midMin side by side on whole indexes: over randomized
// label sets (including strongly asymmetric ones that trigger the
// gallop) the counting mode must return exactly the distance-only mode's
// distance and the with-hub mode's meeting hub, and its counters must be
// consistent with the strategy it reports. At these sizes every hub
// earns a column, so each label set is taken twice: as finalized, where
// the column tiers answer, and flat, where the merge does.
func TestExplainMatchesQueryRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(40) + 2
		s := NewStore(n)
		for v := 0; v < n; v++ {
			// Mix tiny and huge label lists so the gallop dispatch
			// (ratio >= 8) fires regularly.
			var size int
			if r.Intn(3) == 0 {
				size = r.Intn(3)
			} else {
				size = r.Intn(64) + 8
			}
			for k := 0; k < size; k++ {
				s.Append(graph.Vertex(v), graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(1000)+1))
			}
		}
		tiered := NewIndex(s)
		flat := tiered.Flat()
		for q := 0; q < 400; q++ {
			x := tiered
			if q%2 == 1 {
				x = flat
			}
			a := graph.Vertex(r.Intn(n))
			b := graph.Vertex(r.Intn(n))
			wantD := x.Query(a, b)
			wantHubD, wantHub := x.QueryWithHub(a, b)
			ex := x.QueryExplain(a, b)
			if ex.Dist != wantD || wantHubD != wantD {
				t.Fatalf("n=%d (%d,%d): explain dist %d, Query %d, QueryWithHub %d",
					n, a, b, ex.Dist, wantD, wantHubD)
			}
			if ex.Hub != wantHub {
				t.Fatalf("n=%d (%d,%d): explain hub %d, QueryWithHub hub %d", n, a, b, ex.Hub, wantHub)
			}
			if ex.Reachable != (wantD != graph.Inf) {
				t.Fatalf("(%d,%d): reachable %v for dist %d", a, b, ex.Reachable, wantD)
			}
			if ex.SLabelLen != x.LabelSize(a) || ex.TLabelLen != x.LabelSize(b) {
				t.Fatalf("(%d,%d): label lens %d/%d, want %d/%d",
					a, b, ex.SLabelLen, ex.TLabelLen, x.LabelSize(a), x.LabelSize(b))
			}
			// The strategy is chosen for the tails: what the head and the
			// middle tier hold of either label is scanned, not merged.
			sTail, tTail := int(x.off[a+1]-x.off[a]), int(x.off[b+1]-x.off[b])
			if a != b && (ex.HeadSlots != len(x.headHubs) || ex.MidWords != midWords(len(x.midHubs))) {
				t.Fatalf("(%d,%d): %d head slots and %d bitmap words scanned, the index has %d head and %d mid columns",
					a, b, ex.HeadSlots, ex.MidWords, len(x.headHubs), len(x.midHubs))
			}
			switch ex.Algo {
			case "self":
				if a != b {
					t.Fatalf("(%d,%d): algo self for distinct pair", a, b)
				}
			case "empty":
				if sTail != 0 && tTail != 0 {
					t.Fatalf("(%d,%d): algo empty with tails of %d/%d", a, b, sTail, tTail)
				}
			case "linear":
				if ex.GallopProbes != 0 || ex.BinarySteps != 0 {
					t.Fatalf("(%d,%d): linear walk reported gallop counters %+v", a, b, ex)
				}
			case "gallop":
				if short, long := min(sTail, tTail), max(sTail, tTail); long < gallopRatio*short {
					t.Fatalf("(%d,%d): algo gallop below ratio (tails of %d/%d)", a, b, sTail, tTail)
				}
				if ex.LinearSteps != 0 {
					t.Fatalf("(%d,%d): gallop reported linear steps %d", a, b, ex.LinearSteps)
				}
			default:
				t.Fatalf("(%d,%d): unknown algo %q", a, b, ex.Algo)
			}
		}
	}
}

// TestExplainDispatch pins the strategy selection and the counters on
// hand-built shapes.
func TestExplainDispatch(t *testing.T) {
	// Vertex 0: one hub {0}; vertex 1: hubs {0..9} (ratio 10 >= 8 -> gallop);
	// vertex 2: hubs {0,1,2} (ratio 3 -> linear); vertex 3: empty, as are
	// 4..95, which exist so that a hub in three labels is in no more than
	// a 32nd of them: every entry is a tail entry, and the dispatch is
	// the whole query.
	s := NewStore(96)
	s.Append(0, 0, 5)
	for h := 0; h < 10; h++ {
		s.Append(1, graph.Vertex(h), graph.Dist(h+1))
	}
	for h := 0; h < 3; h++ {
		s.Append(2, graph.Vertex(h), graph.Dist(h+1))
	}
	x := NewIndex(s)
	if len(x.headHubs)+len(x.midHubs) != 0 {
		t.Fatalf("fixture has %d head and %d mid columns, want every entry in the tail", len(x.headHubs), len(x.midHubs))
	}

	ex := x.QueryExplain(0, 1)
	if ex.Algo != "gallop" || !ex.Reachable || ex.Dist != 6 || ex.Hub != 0 {
		t.Fatalf("0-1: %+v", ex)
	}
	if ex.HubsProbed != 1 || ex.CommonHubs != 1 {
		t.Fatalf("0-1 counters: %+v", ex)
	}

	ex = x.QueryExplain(2, 1)
	if ex.Algo != "linear" || ex.Dist != 2 || ex.Hub != 0 {
		t.Fatalf("2-1: %+v", ex)
	}
	if ex.CommonHubs != 3 || ex.HubsProbed == 0 || ex.LinearSteps == 0 {
		t.Fatalf("2-1 counters: %+v", ex)
	}
	if ex.Swapped { // vertex 2's label (3 hubs) is already the short run
		t.Fatalf("2-1 unexpectedly swapped: %+v", ex)
	}

	ex = x.QueryExplain(1, 2) // same pair reversed: t becomes the short run
	if ex.Algo != "linear" || !ex.Swapped || ex.Dist != 2 || ex.Hub != 0 {
		t.Fatalf("1-2: %+v", ex)
	}

	ex = x.QueryExplain(0, 3)
	if ex.Algo != "empty" || ex.Reachable || ex.Hub != -1 || ex.Dist != graph.Inf {
		t.Fatalf("0-3: %+v", ex)
	}

	ex = x.QueryExplain(3, 3)
	if ex.Algo != "self" || ex.Dist != 0 || ex.Hub != 3 || !ex.Reachable {
		t.Fatalf("3-3: %+v", ex)
	}
}

// TestExplainPanicsLikeQuery: out-of-range pairs panic exactly as in
// Query (uniform bounds check).
func TestExplainPanicsLikeQuery(t *testing.T) {
	s := NewStore(2)
	s.Append(0, 0, 1)
	x := NewIndex(s)
	defer func() {
		if recover() == nil {
			t.Fatal("QueryExplain(0, 9) did not panic")
		}
	}()
	x.QueryExplain(0, 9)
}
