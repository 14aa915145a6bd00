package vheap

import (
	"math/rand"
	"sort"
	"testing"

	"parapll/internal/graph"
)

func TestIndexedBasic(t *testing.T) {
	h := NewIndexed(10)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if !h.Contains(1) || h.Contains(5) {
		t.Error("Contains wrong")
	}
	if k := h.Key(2); k != 20 {
		t.Errorf("Key(2) = %d, want 20", k)
	}
	v, d := h.Pop()
	if v != 1 || d != 10 {
		t.Fatalf("Pop = (%d,%d), want (1,10)", v, d)
	}
	if h.Contains(1) {
		t.Error("popped vertex still Contains")
	}
}

func TestIndexedDecreaseKey(t *testing.T) {
	h := NewIndexed(5)
	h.Push(0, 100)
	h.Push(1, 50)
	if !h.Push(0, 10) {
		t.Fatal("decrease should report change")
	}
	if h.Push(0, 99) {
		t.Fatal("increase attempt should be a no-op")
	}
	if h.Push(0, 10) {
		t.Fatal("equal-key push should be a no-op")
	}
	v, d := h.Pop()
	if v != 0 || d != 10 {
		t.Fatalf("Pop = (%d,%d), want (0,10)", v, d)
	}
}

func TestIndexedPopOrder(t *testing.T) {
	h := NewIndexed(100)
	r := rand.New(rand.NewSource(1))
	keys := make([]graph.Dist, 100)
	for v := 0; v < 100; v++ {
		keys[v] = graph.Dist(r.Intn(1000))
		h.Push(graph.Vertex(v), keys[v])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 0; i < 100; i++ {
		_, d := h.Pop()
		if d != keys[i] {
			t.Fatalf("pop %d: got %d, want %d", i, d, keys[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestIndexedReset(t *testing.T) {
	h := NewIndexed(10)
	h.Push(4, 4)
	h.Push(5, 5)
	h.Reset()
	if h.Len() != 0 || h.Contains(4) || h.Contains(5) {
		t.Fatal("Reset did not clear heap")
	}
	h.Push(4, 40)
	if v, d := h.Pop(); v != 4 || d != 40 {
		t.Fatal("heap unusable after Reset")
	}
}

// TestIndexedAgainstReference drives the indexed heap and a map of each
// vertex's best key with the same random operation sequence, including
// decrease-keys, and checks every pop agrees on distance.
func TestIndexedAgainstReference(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		h := NewIndexed(n)
		best := make(map[graph.Vertex]graph.Dist)
		for op := 0; op < 500; op++ {
			if r.Intn(3) > 0 || h.Len() == 0 {
				v := graph.Vertex(r.Intn(n))
				d := graph.Dist(r.Intn(10000))
				h.Push(v, d)
				if old, ok := best[v]; !ok || d < old {
					best[v] = d
				}
			} else {
				v, d := h.Pop()
				want, ok := best[v]
				if !ok {
					t.Fatalf("popped vertex %d never pushed", v)
				}
				if d != want {
					t.Fatalf("popped (%d,%d), want key %d", v, d, want)
				}
				delete(best, v)
				// d must be <= every remaining key (min-heap order).
				for _, rest := range best {
					if rest < d {
						t.Fatalf("pop returned %d but %d remains queued", d, rest)
					}
				}
			}
		}
		// Drain; verify global sorted order and exact multiset.
		var popped []graph.Dist
		for h.Len() > 0 {
			_, d := h.Pop()
			popped = append(popped, d)
		}
		if len(popped) != len(best) {
			t.Fatalf("drained %d, want %d", len(popped), len(best))
		}
		if !sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] }) {
			t.Fatal("drain not sorted")
		}
	}
}

func TestIndexedPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty Pop")
		}
	}()
	NewIndexed(1).Pop()
}

func BenchmarkIndexedPushPop(b *testing.B) {
	const n = 1 << 16
	h := NewIndexed(n)
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			h.Push(graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(1<<20)))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
