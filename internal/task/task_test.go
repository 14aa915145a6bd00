package task

import (
	"sort"
	"sync"
	"testing"

	"parapll/internal/graph"
)

func seq(n int) []graph.Vertex {
	out := make([]graph.Vertex, n)
	for i := range out {
		out[i] = graph.Vertex(i)
	}
	return out
}

func TestStaticRoundRobin(t *testing.T) {
	m := NewStatic(seq(9), 3)
	if m.Workers() != 3 {
		t.Fatal("Workers wrong")
	}
	// Worker 1 gets positions 1, 4, 7 (paper Figure 2: thread 2 gets v2,v5,v8).
	var got []int
	for {
		v, pos, ok := m.Next(1)
		if !ok {
			break
		}
		if int(v) != pos {
			t.Fatalf("v=%d pos=%d should match for identity order", v, pos)
		}
		got = append(got, pos)
	}
	want := []int{1, 4, 7}
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("worker 1 positions = %v, want %v", got, want)
	}
}

func TestStaticCoversAllExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 7, 24} {
			m := NewStatic(seq(n), workers)
			var all []int
			for w := 0; w < workers; w++ {
				for {
					_, pos, ok := m.Next(w)
					if !ok {
						break
					}
					all = append(all, pos)
				}
			}
			sort.Ints(all)
			if len(all) != n {
				t.Fatalf("workers=%d n=%d: got %d tasks", workers, n, len(all))
			}
			for i, p := range all {
				if p != i {
					t.Fatalf("workers=%d n=%d: position %d missing", workers, n, i)
				}
			}
		}
	}
}

func TestStaticPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStatic(seq(3), 0)
}

func TestDynamicCoversAllExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 2000
		m := NewDynamic(seq(n), workers)
		var mu sync.Mutex
		var all []int
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var local []int
				for {
					v, pos, ok := m.Next(w)
					if !ok {
						break
					}
					if int(v) != pos {
						panic("identity order mismatch")
					}
					local = append(local, pos)
				}
				mu.Lock()
				all = append(all, local...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		sort.Ints(all)
		if len(all) != n {
			t.Fatalf("workers=%d: %d tasks, want %d", workers, len(all), n)
		}
		for i, p := range all {
			if p != i {
				t.Fatalf("workers=%d: position %d duplicated or missing", workers, i)
			}
		}
	}
}

func TestDynamicInOrderSingleWorker(t *testing.T) {
	// With one worker, dynamic must hand out the exact sequence order
	// (equivalently: highest degree first — the paper's invariant).
	m := NewDynamic(seq(20), 1)
	for i := 0; i < 20; i++ {
		v, pos, ok := m.Next(0)
		if !ok || pos != i || int(v) != i {
			t.Fatalf("step %d: got (%d,%d,%v)", i, v, pos, ok)
		}
	}
	if _, _, ok := m.Next(0); ok {
		t.Fatal("exhausted manager returned a task")
	}
}

func TestDynamicPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDynamic(seq(3), 0)
}

func TestManagerInterfaceCompliance(t *testing.T) {
	var _ Manager = NewStatic(seq(1), 1)
	var _ Manager = NewDynamic(seq(1), 1)
}
