package bench

import (
	"fmt"
	"time"

	"parapll/internal/cluster"
	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/stats"
)

// RunAblations measures the design choices DESIGN.md calls out, on one
// power-law and one road graph scaled by cfg.Scale:
//
//   - label store: lock-free published-length vs. global RWMutex
//   - ordering: degree vs. ψ-sampling vs. random (by index size)
//   - dynamic chunk size: 1 vs. 8 vs. 64
//   - inter-node partition: round-robin vs. blocks vs. random (by work skew)
func RunAblations(cfg Config, threads int) (*Table, error) {
	t := &Table{
		Title:  "Ablations: each design choice vs its alternative (time in seconds; see metric column)",
		Header: []string{"graph", "ablation", "variant", "seconds", "metric", "value"},
	}
	social, err := gen.FindRecipe("Epinions")
	if err != nil {
		return nil, err
	}
	road, err := gen.FindRecipe("DE-USA")
	if err != nil {
		return nil, err
	}
	for _, rec := range []gen.Recipe{social, road} {
		g := rec.Generate(cfg.Scale)
		ord := graph.DegreeOrder(g)

		// Store ablation.
		var idx *label.Index
		lockfree := timed(func() {
			idx = core.Build(g, core.Options{Threads: threads, Policy: core.Dynamic, Order: ord})
		})
		t.AddRow(rec.Name, "store", "lock-free", stats.FormatDuration(lockfree),
			"entries", fmt.Sprint(idx.NumEntries()))
		rwmutex := timed(func() {
			store := core.NewRWLockedStore(g.NumVertices())
			core.BuildInto(g, store, core.Options{Threads: threads, Policy: core.Dynamic, Order: ord})
			idx = store.Finalize()
		})
		t.AddRow(rec.Name, "store", "rwmutex", stats.FormatDuration(rwmutex),
			"entries", fmt.Sprint(idx.NumEntries()))

		// Ordering ablation (index size is the quantity that matters).
		for _, o := range []struct {
			name string
			ord  []graph.Vertex
		}{
			{"degree", ord},
			{"psi", order.PsiSample(g, 8, 1)},
			{"random", order.Random(g, 1)},
		} {
			var d time.Duration
			d = timed(func() { idx = pll.Build(g, pll.Options{Order: o.ord}) })
			t.AddRow(rec.Name, "order", o.name, stats.FormatDuration(d),
				"entries", fmt.Sprint(idx.NumEntries()))
		}

		// Dynamic chunk size.
		for _, chunk := range []int{1, 8, 64} {
			d := timed(func() {
				idx = core.Build(g, core.Options{Threads: threads, Policy: core.Dynamic, Order: ord, Chunk: chunk})
			})
			t.AddRow(rec.Name, "chunk", fmt.Sprint(chunk), stats.FormatDuration(d),
				"entries", fmt.Sprint(idx.NumEntries()))
		}

		// Partition skew on a 4-node simulated cluster.
		for _, p := range []cluster.Partition{
			cluster.PartitionRoundRobin, cluster.PartitionBlocks, cluster.PartitionRandom,
		} {
			var skew float64
			d := timed(func() {
				_, sts, err2 := cluster.RunLocal(g, 4, cluster.Options{
					Threads: 1, SyncCount: 1, Partition: p, Seed: 7, Order: ord,
				})
				if err2 != nil {
					err = err2
					return
				}
				var max, sum int64
				for _, s := range sts {
					sum += s.WorkOps
					if s.WorkOps > max {
						max = s.WorkOps
					}
				}
				skew = float64(max) * 4 / float64(sum)
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(rec.Name, "partition", p.String(), stats.FormatDuration(d),
				"work-skew", fmt.Sprintf("%.2f", skew))
		}
	}
	return t, nil
}
