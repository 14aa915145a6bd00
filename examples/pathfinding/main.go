// Pathfinding: beyond distances, reconstruct the actual shortest route.
// The paper's route-selection use case ("optimal path selection between
// two nodes in a network") needs the hop sequence. The distance index
// alone gives it: from each vertex, step to a neighbour v with
// w(u,v) + d(v,t) = d(u,t) — one index query per neighbour probed, no
// second index and no graph search.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"parapll"
)

func main() {
	const scale = 0.05 // ~2.4k intersections of the Delaware road network
	g, err := parapll.GenerateDataset("DE-USA", scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d intersections, %d segments\n", g.NumVertices(), g.NumEdges())

	t0 := time.Now()
	idx := parapll.Build(g, parapll.Options{Policy: parapll.Dynamic})
	fmt.Printf("index built in %.2fs (%d entries)\n", time.Since(t0).Seconds(), idx.NumEntries())

	r := rand.New(rand.NewSource(3))
	n := g.NumVertices()
	shown := 0
	for shown < 3 {
		s := parapll.Vertex(r.Intn(n))
		t := parapll.Vertex(r.Intn(n))
		path, d := parapll.Path(g, idx, s, t)
		if d == parapll.Inf || len(path) < 4 {
			continue // pick a more interesting pair
		}
		shown++
		hops := make([]string, len(path))
		for i, v := range path {
			hops[i] = fmt.Sprint(v)
		}
		fmt.Printf("route %d -> %d: length %d over %d hops\n  %s\n",
			s, t, d, len(path)-1, strings.Join(hops, " -> "))
		// Cross-check: the route length equals the exact distance.
		if want := parapll.QueryDirect(g, s, t); want != d {
			log.Fatalf("route length %d != Dijkstra %d", d, want)
		}
	}

	// Throughput: a path costs one query per neighbour probed on its way.
	const queries = 2000
	t1 := time.Now()
	var hops int
	for i := 0; i < queries; i++ {
		s := parapll.Vertex(r.Intn(n))
		t := parapll.Vertex(r.Intn(n))
		p, _ := parapll.Path(g, idx, s, t)
		hops += len(p)
	}
	fmt.Printf("%d full-path queries at %v/query (avg %.1f hops)\n",
		queries, time.Since(t1)/queries, float64(hops)/queries)
}
