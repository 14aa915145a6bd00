package cluster

import (
	"sort"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
)

func seqVerts(n int) []graph.Vertex {
	out := make([]graph.Vertex, n)
	for i := range out {
		out[i] = graph.Vertex(i)
	}
	return out
}

func TestPartitionCoversExactlyOnce(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 10, 23} {
			ord := seqVerts(n)
			var all []int
			for rank := 0; rank < size; rank++ {
				for _, v := range partitionRoots(ord, rank, size) {
					all = append(all, int(v))
				}
			}
			sort.Ints(all)
			if len(all) != n {
				t.Fatalf("size=%d n=%d: covered %d", size, n, len(all))
			}
			for i, v := range all {
				if v != i {
					t.Fatalf("size=%d n=%d: vertex %d missing or duplicated", size, n, i)
				}
			}
		}
	}
}

func TestPartitionRoundRobinDeals(t *testing.T) {
	ord := seqVerts(7)
	got := partitionRoots(ord, 1, 3)
	want := []graph.Vertex{1, 4}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rank 1 of 3 = %v, want %v", got, want)
	}
}

// TestRoundRobinBalancesHubs shows why the paper deals round-robin: with
// hub-first ordering on a power-law graph the expensive early roots are
// spread over all nodes, so no node does much more than its share
// (skew 1.12 here; contiguous blocks of the same order gave 1.37).
func TestRoundRobinBalancesHubs(t *testing.T) {
	g := gen.ChungLu(600, 2400, 2.2, 31)
	_, sts, err := RunLocal(g, 4, Options{Threads: 1, SyncCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	var max, sum int64
	for _, s := range sts {
		sum += s.WorkOps
		if s.WorkOps > max {
			max = s.WorkOps
		}
	}
	skew := float64(max) * 4 / float64(sum) // 1.0 = perfectly balanced
	if skew > 1.2 {
		t.Fatalf("round-robin work skew %.2f, want <= 1.2", skew)
	}
}
