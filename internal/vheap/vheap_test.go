package vheap

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"parapll/internal/graph"
)

func TestRadixBasic(t *testing.T) {
	var h Radix
	if h.Len() != 0 {
		t.Fatal("zero heap not empty")
	}
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(1, 10)
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	for _, want := range []graph.Dist{10, 10, 20, 30} {
		if _, d := h.Pop(); d != want {
			t.Fatalf("Pop = %d, want %d", d, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestRadixPopOrder(t *testing.T) {
	var h Radix
	r := rand.New(rand.NewSource(1))
	keys := make([]graph.Dist, 100)
	for v := range keys {
		keys[v] = graph.Dist(r.Intn(1000))
		h.Push(graph.Vertex(v), keys[v])
	}
	slices.Sort(keys)
	for i, want := range keys {
		if _, d := h.Pop(); d != want {
			t.Fatalf("pop %d: got %d, want %d", i, d, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

// TestRadixAgainstReference drives the heap and a sorted multiset with
// the same random Dijkstra-shaped sequence: every push is at or above the
// last key popped, some exactly at it (zero-weight edges), some near
// graph.Inf-1, and a vertex may be queued several times. Every pop must
// return a minimum key of the multiset and an item in it.
func TestRadixAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	type it struct {
		d graph.Dist
		v graph.Vertex
	}
	for trial := 0; trial < 200; trial++ {
		var h Radix
		var ref []it // sorted by d
		var last graph.Dist
		if trial%4 == 3 {
			last = graph.Inf - 1 - graph.Dist(r.Intn(1<<12))
		}
		push := func(d graph.Dist) {
			v := graph.Vertex(r.Intn(64))
			h.Push(v, d)
			i, _ := slices.BinarySearchFunc(ref, d, func(e it, d graph.Dist) int { return cmp.Compare(e.d, d) })
			ref = slices.Insert(ref, i, it{d, v})
		}
		push(last)
		for op := 0; op < 400; op++ {
			if len(ref) > 0 && r.Intn(3) == 0 {
				v, d := h.Pop()
				if d != ref[0].d {
					t.Fatalf("trial %d: Pop = %d, want minimum %d", trial, d, ref[0].d)
				}
				i := slices.Index(ref, it{d, v})
				if i < 0 {
					t.Fatalf("trial %d: popped (%d,%d), never queued", trial, v, d)
				}
				ref = slices.Delete(ref, i, i+1)
				last = d
				continue
			}
			gap := uint64(r.Intn(1 << r.Intn(31))) // spans every bucket
			if r.Intn(5) == 0 {
				gap = 0
			}
			push(last + graph.Dist(min(gap, uint64(graph.Inf-1-last))))
			if h.Len() != len(ref) {
				t.Fatalf("trial %d: Len = %d, want %d", trial, h.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			if _, d := h.Pop(); d != ref[0].d {
				t.Fatalf("trial %d: drain Pop = %d, want %d", trial, d, ref[0].d)
			}
			ref = ref[1:]
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: Len = %d after draining", trial, h.Len())
		}
	}
}

func TestRadixPushBelowLastPanics(t *testing.T) {
	var h Radix
	h.Push(0, 5)
	h.Push(1, 9)
	h.Pop()
	h.Push(2, 5) // at the last key: allowed
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a push below the last popped key")
		}
	}()
	h.Push(3, 4)
}

func TestRadixPeekDoesNotConsume(t *testing.T) {
	var h Radix
	h.Push(7, 40)
	h.Push(8, 12)
	h.Push(9, 33)
	for i := 0; i < 3; i++ {
		if v, d := h.Peek(); v != 8 || d != 12 {
			t.Fatalf("Peek = (%d,%d), want (8,12)", v, d)
		}
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d after Peek, want 3", h.Len())
	}
	if v, d := h.Pop(); v != 8 || d != 12 {
		t.Fatalf("Pop after Peek = (%d,%d), want (8,12)", v, d)
	}
	if _, d := h.Peek(); d != 33 {
		t.Fatalf("second Peek = %d, want 33", d)
	}
}

func TestRadixReset(t *testing.T) {
	var h Radix
	h.Push(4, 400)
	h.Push(5, 500)
	h.Pop()
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty the heap")
	}
	h.Push(4, 3) // below the old last: a reset heap starts over
	h.Push(6, 1)
	if v, d := h.Pop(); v != 6 || d != 1 {
		t.Fatalf("Pop after Reset = (%d,%d), want (6,1)", v, d)
	}
	if v, d := h.Pop(); v != 4 || d != 3 {
		t.Fatalf("Pop after Reset = (%d,%d), want (4,3)", v, d)
	}
}

func TestRadixPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty Pop")
		}
	}()
	var h Radix
	h.Pop()
}

// BenchmarkRadixDijkstra runs a lazy Dijkstra on a random graph of 2^14
// vertices and average degree 8, weights 1-1000: every strict improvement
// pushes, every stale pop is skipped, as in the repository's searches.
func BenchmarkRadixDijkstra(b *testing.B) {
	const n = 1 << 14
	r := rand.New(rand.NewSource(5))
	edges := make([]graph.Edge, 0, 4*n)
	for i := 0; i < 4*n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(1000))})
	}
	g := graph.FromEdges(n, edges)
	dist := make([]graph.Dist, n)
	var h Radix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range dist {
			dist[v] = graph.Inf
		}
		s := graph.Vertex(i % n)
		dist[s] = 0
		h.Reset()
		h.Push(s, 0)
		for h.Len() > 0 {
			u, d := h.Pop()
			if d != dist[u] {
				continue
			}
			ns, ws := g.Neighbors(u)
			for j, v := range ns {
				if nd := graph.AddDist(d, ws[j]); nd < dist[v] {
					dist[v] = nd
					h.Push(v, nd)
				}
			}
		}
	}
}
