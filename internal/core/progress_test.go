package core

import (
	"math/rand"
	"sync"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
)

func TestProgressCountsMatchBuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, 60, 200)
	var prog Progress
	idx, bs := BuildWithStats(g, Options{Threads: 4, Policy: Dynamic, Progress: &prog})
	s := prog.Snapshot()
	if s.TotalRoots != int64(g.NumVertices()) || s.RootsDone != s.TotalRoots {
		t.Fatalf("roots: done %d / total %d, want %d/%d",
			s.RootsDone, s.TotalRoots, g.NumVertices(), g.NumVertices())
	}
	if s.LabelsAdded != idx.NumEntries() {
		t.Fatalf("labels added %d, index has %d entries", s.LabelsAdded, idx.NumEntries())
	}
	if s.WorkOps != bs.TotalWork() {
		t.Fatalf("progress work %d, stats work %d", s.WorkOps, bs.TotalWork())
	}
	if s.Pruned <= 0 {
		t.Fatalf("pruned = %d, want > 0 on a connected graph", s.Pruned)
	}
}

// TestProgressConcurrentSampling snapshots while the build runs; the
// point is the race detector, plus monotonicity of what a sampler sees.
func TestProgressConcurrentSampling(t *testing.T) {
	g := gen.ChungLu(500, 2000, 2.2, 9)
	var prog Progress
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last ProgressSnapshot
		for {
			s := prog.Snapshot()
			if s.RootsDone < last.RootsDone || s.LabelsAdded < last.LabelsAdded {
				t.Errorf("progress went backwards: %+v after %+v", s, last)
				return
			}
			last = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	Build(g, Options{Threads: 4, Policy: Dynamic, Progress: &prog})
	close(stop)
	wg.Wait()
	if got := prog.Snapshot().RootsDone; got != int64(g.NumVertices()) {
		t.Fatalf("roots done %d, want %d", got, g.NumVertices())
	}
}

func TestBuildPanicsOnCorruptOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 10, 20)
	dup := []graph.Vertex{0, 1, 2, 3, 4, 5, 6, 7, 8, 8} // 9 missing, 8 twice
	defer func() {
		if recover() == nil {
			t.Error("BuildInto: no panic on duplicate-vertex order")
		}
	}()
	BuildInto(g, label.NewStore(10), Options{Threads: 1, Order: dup})
}

// BenchmarkBuildProgressOverhead quantifies the cost of the Progress
// atomics: the "with" case must be indistinguishable from "without",
// since updates happen once per root, not per edge.
func BenchmarkBuildProgressOverhead(b *testing.B) {
	g := gen.ChungLu(2000, 10000, 2.2, 5)
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Build(g, Options{Threads: 4, Policy: Dynamic})
		}
	})
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var prog Progress
			Build(g, Options{Threads: 4, Policy: Dynamic, Progress: &prog})
		}
	})
}
