package label

import "parapll/internal/graph"

// MidOnlyIndex is midOnlyIndex for the external test package.
var MidOnlyIndex = midOnlyIndex

// RefMerge is refMerge for the external test package.
var RefMerge = refMerge

// Entries is entries for the external test package.
func (s *Store) Entries(v graph.Vertex, dst []Entry) []Entry { return s.entries(v, dst) }

// SortDedupe is sortDedupe on l packed, for the external test package.
func SortDedupe(l []Entry) []Entry {
	keys := make([]uint64, len(l))
	for i, e := range l {
		keys[i] = pack(e)
	}
	var out []Entry
	for _, k := range sortDedupe(keys) {
		out = append(out, unpack(k))
	}
	return out
}

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

// Seg returns the entries of segment k of a store's list, 4·2^k from
// slot 4·2^k-4, cut at Len: empty past the last.
func (l List) Seg(k int) []Entry {
	all, start := l.AppendTo(nil), 4<<k-4
	if start >= len(all) {
		return nil
	}
	return all[start:min(len(all), start+4<<k)]
}
