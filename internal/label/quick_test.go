package label

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"parapll/internal/graph"
)

// arbitraryIndex builds an index from fuzzer-shaped raw data: each
// (vertex, hub, dist) triple is reduced into range.
func arbitraryIndex(n int, triples [][3]uint32) *Index {
	if n < 1 {
		n = 1
	}
	s := NewStore(n)
	for _, tr := range triples {
		v := graph.Vertex(tr[0] % uint32(n))
		h := graph.Vertex(tr[1] % uint32(n))
		d := graph.Dist(tr[2] % 1000000)
		s.Append(v, h, d)
	}
	return NewIndex(s)
}

// bruteQuery recomputes QUERY(s,t) the slow way from the raw lists.
func bruteQuery(x *Index, s, t graph.Vertex) graph.Dist {
	if s == t {
		return 0
	}
	sh, sd := x.Label(s, nil, nil)
	th, td := x.Label(t, nil, nil)
	best := graph.Inf
	for i, h1 := range sh {
		for j, h2 := range th {
			if h1 == h2 {
				if d := graph.AddDist(sd[i], td[j]); d < best {
					best = d
				}
			}
		}
	}
	return best
}

func TestQuickQueryMatchesBruteForce(t *testing.T) {
	f := func(nRaw uint8, triples [][3]uint32, a, b uint8) bool {
		n := int(nRaw%30) + 1
		x := arbitraryIndex(n, triples)
		s := graph.Vertex(int(a) % n)
		u := graph.Vertex(int(b) % n)
		return x.Query(s, u) == bruteQuery(x, s, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndexInvariants(t *testing.T) {
	f := func(nRaw uint8, triples [][3]uint32) bool {
		n := int(nRaw%30) + 1
		x := arbitraryIndex(n, triples)
		// Offsets monotone, hubs sorted strictly within each vertex.
		var total int64
		for v := 0; v < n; v++ {
			hubs, _ := x.Label(graph.Vertex(v), nil, nil)
			for i := 1; i < len(hubs); i++ {
				if hubs[i-1] >= hubs[i] {
					return false
				}
			}
			total += int64(len(hubs))
		}
		return total == x.NumEntries()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompactRoundTrip: an index at the narrowest distance width
// its labels allow comes back from its PIDM bytes, through the stream
// reader, the same and at the same width.
func TestQuickCompactRoundTrip(t *testing.T) {
	f := func(nRaw uint8, triples [][3]uint32) bool {
		n := int(nRaw%40) + 1
		x := arbitraryIndex(n, triples)
		var buf bytes.Buffer
		if err := x.WriteMmap(&buf); err != nil {
			return false
		}
		y, err := readPIDMStream(&buf)
		return err == nil && x.Equal(y) && y.DistBytes() == x.DistBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFixedRoundTrip: the same index held at the fixed 4-byte width
// comes back from its PIDM bytes, through the mapped reader, the same
// and still at 4 bytes.
func TestQuickFixedRoundTrip(t *testing.T) {
	f := func(nRaw uint8, triples [][3]uint32) bool {
		n := int(nRaw%40) + 1
		x := arbitraryIndex(n, triples).Wide()
		var buf bytes.Buffer
		if err := x.WriteMmap(&buf); err != nil {
			return false
		}
		y, err := openMapping(&mapping{data: buf.Bytes()})
		return err == nil && x.Equal(y) && y.DistBytes() == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDedupeKeepsMin: duplicates of the same (vertex,hub) collapse
// to the minimum distance.
func TestQuickDedupeKeepsMin(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		s := NewStore(2)
		min := graph.Dist(ds[0])
		for _, d := range ds {
			s.Append(0, 1, graph.Dist(d))
			if graph.Dist(d) < min {
				min = graph.Dist(d)
			}
		}
		x := NewIndex(s)
		_, dists := x.Label(0, nil, nil)
		return len(dists) == 1 && dists[0] == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStoreLenConsistency: TotalEntries always equals the sum of
// per-vertex lengths, even interleaved with snapshots.
func TestQuickStoreLenConsistency(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8
		s := NewStore(n)
		for i := 0; i < int(ops); i++ {
			s.Append(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(100)))
			if r.Intn(4) == 0 {
				_ = s.Snapshot(graph.Vertex(r.Intn(n)))
			}
		}
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(s.Len(graph.Vertex(v)))
		}
		return sum == s.TotalEntries()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
