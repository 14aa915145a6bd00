package label

import "parapll/internal/graph"

// MidOnlyIndex is midOnlyIndex for the external test package.
var MidOnlyIndex = midOnlyIndex

// RefMerge is refMerge for the external test package.
var RefMerge = refMerge

// Entries is entries for the external test package.
func (s *Store) Entries(v graph.Vertex, dst []Entry) []Entry { return s.entries(v, dst) }

// Runs splits a label list into the sorted, deduplicated hub and
// distance runs refMerge and MergeRun take.
func Runs(l []Entry) ([]graph.Vertex, []graph.Dist) {
	l = SortDedupe(l)
	hubs, dists := make([]graph.Vertex, len(l)), make([]graph.Dist, len(l))
	for i, e := range l {
		hubs[i], dists[i] = e.Hub, e.D
	}
	return hubs, dists
}
