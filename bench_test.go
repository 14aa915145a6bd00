// Benchmarks regenerating every table and figure of the paper's
// evaluation at a reduced scale (one per table/figure, named after it),
// plus microbenchmarks and the ablations DESIGN.md calls out. Run the
// full-size experiments with cmd/parapll-bench -scale 1.0.
package parapll_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"parapll"
	"parapll/internal/bench"
	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// benchConfig is the reduced experiment grid used by the table/figure
// benchmarks: small enough for `go test -bench=.`, wide enough to cover
// every code path the full runs use.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:      0.01,
		Datasets:   []string{"Wiki-Vote", "Gnutella", "DE-USA"},
		Threads:    []int{1, 2, 4},
		Nodes:      []int{1, 2, 3},
		SyncCounts: []int{1, 4, 16},
		Queries:    200,
	}
}

func runTable(b *testing.B, run func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := table.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (static assignment policy).
func BenchmarkTable3(b *testing.B) { runTable(b, bench.RunTable3) }

// BenchmarkTable4 regenerates Table 4 (dynamic assignment policy).
func BenchmarkTable4(b *testing.B) { runTable(b, bench.RunTable4) }

// BenchmarkTable5 regenerates Table 5 (cluster scaling, c=1).
func BenchmarkTable5(b *testing.B) {
	runTable(b, func(cfg bench.Config) (*bench.Table, error) {
		return bench.RunTable5(cfg, 2)
	})
}

// BenchmarkFig5 regenerates Figure 5 (degree distributions).
func BenchmarkFig5(b *testing.B) { runTable(b, bench.RunFig5) }

// BenchmarkFig6 regenerates Figure 6 (label-addition CDFs).
func BenchmarkFig6(b *testing.B) {
	runTable(b, func(cfg bench.Config) (*bench.Table, error) {
		return bench.RunFig6(cfg, 4)
	})
}

// BenchmarkFig7 regenerates Figure 7 (sync-frequency sweep on a
// 3-node simulated cluster with comm/comp breakdown).
func BenchmarkFig7(b *testing.B) {
	runTable(b, func(cfg bench.Config) (*bench.Table, error) {
		return bench.RunFig7(cfg, 3, 1)
	})
}

// BenchmarkQueryComparison regenerates the introduction's index-free vs
// indexed query latency comparison.
func BenchmarkQueryComparison(b *testing.B) {
	runTable(b, func(cfg bench.Config) (*bench.Table, error) {
		return bench.RunQueryComparison(cfg, 4)
	})
}

// --- Microbenchmarks ---

func epinions(b *testing.B, scale float64) *parapll.Graph {
	b.Helper()
	g, err := parapll.GenerateDataset("Epinions", scale)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkIndexQuery measures one indexed distance query.
func BenchmarkIndexQuery(b *testing.B) {
	g := epinions(b, 0.05)
	idx := parapll.Build(g, parapll.Options{Policy: parapll.Dynamic})
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Query(parapll.Vertex(i%n), parapll.Vertex((i*31)%n))
	}
}

// BenchmarkDirectQuery measures the index-free Dijkstra query baseline.
func BenchmarkDirectQuery(b *testing.B) {
	g := epinions(b, 0.05)
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parapll.QueryDirect(g, parapll.Vertex(i%n), parapll.Vertex((i*31)%n))
	}
}

// BenchmarkBuildSerialVsParallel compares the indexing stage across
// engines on one dataset.
func BenchmarkBuildSerialVsParallel(b *testing.B) {
	g := epinions(b, 0.02)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parapll.BuildSerial(g, parapll.Options{})
		}
	})
	b.Run("parallel-static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parapll.Build(g, parapll.Options{Threads: 4, Policy: parapll.Static})
		}
	})
	b.Run("parallel-dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parapll.Build(g, parapll.Options{Threads: 4, Policy: parapll.Dynamic})
		}
	})
}

// benchBuild times the `build` workload's own job in process — per-root
// engine, two threads, dynamic policy, degree order, finalize included —
// and reports it per label entry, so
//
//	go test -run '^$' -bench 'BuildP2P|BuildRoad' -cpuprofile cpu.out .
//
// reproduces the build profile without a profiling flag on the binary.
func benchBuild(b *testing.B, dataset string, scale float64) {
	g, err := parapll.GenerateDataset(dataset, scale)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Threads: 2, Policy: core.Dynamic, Order: order.Degree(g)}
	var entries int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries += core.Build(g, opt).NumEntries()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(entries), "allocs/entry")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(entries), "B/entry")
}

// BenchmarkBuildP2P is the repository benchmark's p2p build (Gnutella
// at scale 0.35: n ≈ 3.8 k, LN ≈ 229).
func BenchmarkBuildP2P(b *testing.B) { benchBuild(b, "Gnutella", 0.35) }

// BenchmarkBuildRoad is its road build (RI-USA at scale 0.07).
func BenchmarkBuildRoad(b *testing.B) { benchBuild(b, "RI-USA", 0.07) }

// BenchmarkQueryKernel is the in-process table for the two QUERY
// kernels: the per-pair merge (Query, WithHub, Explain) and the batch
// scatter-and-scan (QueryBatch), on the two build-benchmark graphs
// (1-thread builds, so the labels are the same run to run and side to
// side) and on two synthetic indexes over a 2^20 id space, where the
// batch kernel's 4 MB dense array no longer sits in L1/L2:
//
//	go test -run '^$' -bench QueryKernel -count 6 .
//
// on a parent and a change checkout is the parity table for any kernel
// edit. One Batch2000xT op is a whole 2000-pair QueryBatch on T
// goroutines — uniform pairs, or sources drawn from 512 or 32 vertices
// in random order — and one Batch4 op a 4-pair batch, the benchmark's
// small /batch; their allocs/op are the result slice and the fan-out.
// Batch1 is a lone pair through the batch kernel (pooled scratch, plus
// the result slice Query does not have). Each -nomid row is the row
// above it on the same labels finalized with a head and no bitmap tier
// (Index.HeadOnly), each -flat row with every entry in the tail and
// hubs and distances at 4 bytes (Index.Flat; P2P picks 1-byte distances
// and Road 2, both 2-byte hubs): what the tiers and the widths buy, side
// by side in one run. On the synthetic indexes no hub is in a 32nd of
// the 2^20 labels, both tiers are empty, and the first two rows are one
// layout, a tie by construction; the -flat row is that layout at 4 bytes
// a hub and a distance where they have 4 and 2.
func BenchmarkQueryKernel(b *testing.B) {
	for _, ds := range []struct {
		name, dataset string
		scale         float64
	}{{"P2P", "Gnutella", 0.35}, {"Road", "RI-USA", 0.07}} {
		g, err := parapll.GenerateDataset(ds.dataset, ds.scale)
		if err != nil {
			b.Fatal(err)
		}
		x := core.Build(g, core.Options{Threads: 1, Order: order.Degree(g)})
		vs := make([]graph.Vertex, g.NumVertices())
		for v := range vs {
			vs[v] = graph.Vertex(v)
		}
		kernelRows(b, ds.name, x, vs, true)
		kernelRows(b, ds.name+"-nomid", x.HeadOnly(), vs, true)
		kernelRows(b, ds.name+"-flat", x.Flat(), vs, false)
	}
	for _, hubs := range []string{"zipf", "uniform"} {
		x, labelled := synthIndex(hubs == "zipf")
		kernelRows(b, "Synth-"+hubs, x, labelled, false)
		kernelRows(b, "Synth-"+hubs+"-nomid", x.HeadOnly(), labelled, false)
		kernelRows(b, "Synth-"+hubs+"-flat", x.Flat(), labelled, false)
	}
}

// kernelRows runs BenchmarkQueryKernel's rows on one index with query
// endpoints drawn from vs; the short form keeps to Query and the
// single-thread batches.
func kernelRows(b *testing.B, name string, x *label.Index, vs []graph.Vertex, full bool) {
	r := gen.NewRNG(18)
	pick := func(from []graph.Vertex) graph.Vertex { return from[r.Intn(len(from))] }
	draw := func(sources []graph.Vertex) [][2]graph.Vertex {
		pairs := make([][2]graph.Vertex, 2000)
		for i := range pairs {
			pairs[i] = [2]graph.Vertex{pick(sources), pick(vs)}
		}
		return pairs
	}
	pairs := draw(vs)
	src512, src32 := make([]graph.Vertex, 512), make([]graph.Vertex, 32)
	for i := range src512 {
		src512[i] = pick(vs)
	}
	copy(src32, src512)
	shapes := []struct {
		name  string
		pairs [][2]graph.Vertex
	}{{"uniform", pairs}, {"src512", draw(src512)}, {"src32", draw(src32)}}

	perPair := func(shape string, query func(s, t graph.Vertex)) {
		b.Run(name+"/"+shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				query(p[0], p[1])
			}
		})
	}
	perPair("Query", func(s, t graph.Vertex) { kernelSink = x.Query(s, t) })
	if full {
		perPair("WithHub", func(s, t graph.Vertex) { kernelSink, _ = x.QueryWithHub(s, t) })
		perPair("Explain", func(s, t graph.Vertex) { kernelSink = x.QueryExplain(s, t).Dist })
	}
	perPair("Batch1", func(s, t graph.Vertex) { kernelSink = x.QueryBatch([][2]graph.Vertex{{s, t}}, 1)[0] })
	b.Run(name+"/Batch4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % (len(pairs) / 4) * 4
			kernelSink = x.QueryBatch(pairs[k:k+4], 1)[0]
		}
	})
	for threads := 1; threads <= 2; threads++ {
		if threads == 2 && !full {
			break
		}
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/Batch2000x%d/%s", name, threads, sh.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					kernelSink = x.QueryBatch(sh.pairs, threads)[0]
				}
			})
		}
	}
}

// synthIndex builds an index no graph produced, to price the batch
// kernel's dense array when it is 4 MB instead of 15 KB: 2^20 vertices,
// 4000 of them labelled with 250 hubs each. With zipf the hubs are drawn
// with probability ~1/rank from a popular set of 2^16 ids scattered over
// the id space — the shape PLL produces, a few hubs in nearly every
// label; without, uniformly from all 2^20 ids, which no PLL ordering
// produces and which makes every scatter and every probe a cache miss.
// It returns the index and its labelled vertices.
func synthIndex(zipf bool) (*label.Index, []graph.Vertex) {
	const (
		n        = 1 << 20
		labelled = 4000
		ln       = 250
		popular  = 1 << 16
	)
	r := gen.NewRNG(19)
	perm := r.Perm(n)
	lists := make([][]label.Entry, n)
	vs := make([]graph.Vertex, labelled)
	for i := range vs {
		vs[i] = graph.Vertex(perm[n-1-i]) // the far end of perm: disjoint from the popular set
		seen := make(map[int]bool, ln)
		list := make([]label.Entry, 0, ln)
		for len(list) < ln {
			h := r.Intn(n)
			if zipf {
				// Log-uniform rank: P(rank) ~ 1/rank over [1, popular].
				h = perm[int(math.Pow(popular, r.Float64()))-1]
			}
			if !seen[h] {
				seen[h] = true
				list = append(list, label.Entry{Hub: graph.Vertex(h), D: graph.Dist(1 + r.Intn(1000))})
			}
		}
		lists[vs[i]] = list
	}
	return label.NewIndexFromLists(lists), vs
}

// kernelSink keeps BenchmarkQueryKernel's calls from being optimised away.
var kernelSink graph.Dist

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationOrder compares computing-sequence policies by the
// index size they produce (reported as entries/op) and their build time.
func BenchmarkAblationOrder(b *testing.B) {
	social := gen.ChungLu(2000, 8000, 2.2, 19)
	road := gen.RoadGrid(45, 45, 3900, 19)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"social", social}, {"road", road}} {
		for _, ord := range []struct {
			name  string
			order []graph.Vertex
		}{
			{"degree", order.Degree(tc.g)},
			{"psi", order.PsiSample(tc.g, 8, 1)},
			{"random", order.Random(tc.g, 1)},
		} {
			b.Run(tc.name+"/"+ord.name, func(b *testing.B) {
				var entries int64
				for i := 0; i < b.N; i++ {
					idx := pll.Build(tc.g, pll.Options{Order: ord.order})
					entries = idx.NumEntries()
				}
				b.ReportMetric(float64(entries), "entries")
			})
		}
	}
}

// BenchmarkAblationPruneQuery compares the hub-scatter prune query used
// during construction (via a normal build) against a no-pruning build
// (what the index would cost without PLL's pruning): plain Dijkstra from
// every root, measured through label volume.
func BenchmarkAblationPruneQuery(b *testing.B) {
	g := gen.ChungLu(800, 3200, 2.2, 21)
	b.Run("pruned", func(b *testing.B) {
		var entries int64
		for i := 0; i < b.N; i++ {
			entries = pll.Build(g, pll.Options{}).NumEntries()
		}
		b.ReportMetric(float64(entries), "entries")
	})
	b.Run("unpruned-full-dijkstra", func(b *testing.B) {
		var entries int64
		for i := 0; i < b.N; i++ {
			// Full APSP labeling: every vertex labels every reachable
			// vertex. This is the O(n^2) strawman the paper's intro
			// dismisses.
			lists := make([][]label.Entry, g.NumVertices())
			for v := 0; v < g.NumVertices(); v++ {
				d := sssp.Dijkstra(g, graph.Vertex(v))
				for u, du := range d {
					if du != graph.Inf {
						lists[u] = append(lists[u], label.Entry{Hub: graph.Vertex(v), D: du})
					}
				}
			}
			entries = label.NewIndexFromLists(lists).NumEntries()
		}
		b.ReportMetric(float64(entries), "entries")
	})
}
