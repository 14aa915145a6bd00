// Road-network route-distance service: generate a Hawaii-sized road
// graph (the paper's HI-USA stand-in), index it once, then serve a burst
// of point-to-point route-length queries and compare the latency against
// running Dijkstra per query — the paper's core use case ("optimal path
// selection between two nodes in a network").
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"parapll"
)

func main() {
	const scale = 0.1 // ~6.5k intersections; raise toward 1.0 for paper scale
	g, err := parapll.GenerateDataset("HI-USA", scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d intersections, %d segments\n", g.NumVertices(), g.NumEdges())

	// One-time indexing stage, in the default computing sequence.
	t0 := time.Now()
	idx := parapll.Build(g, parapll.Options{Policy: parapll.Dynamic})
	fmt.Printf("indexed in %.2fs (avg label size %.1f)\n", time.Since(t0).Seconds(), idx.AvgLabelSize())

	// Serve a burst of route queries.
	r := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	const queries = 5000
	t1 := time.Now()
	var checksum uint64
	for i := 0; i < queries; i++ {
		s, t := parapll.Vertex(r.Intn(n)), parapll.Vertex(r.Intn(n))
		checksum += uint64(idx.Query(s, t))
	}
	perQuery := time.Since(t1) / queries
	fmt.Printf("%d routed pairs at %v/query (checksum %d)\n", queries, perQuery, checksum)

	// The same burst with per-query Dijkstra, to show why the index
	// matters (cap the count — this is the slow path).
	const slowQueries = 20
	r2 := rand.New(rand.NewSource(7))
	t2 := time.Now()
	for i := 0; i < slowQueries; i++ {
		s, t := parapll.Vertex(r2.Intn(n)), parapll.Vertex(r2.Intn(n))
		parapll.QueryDirect(g, s, t)
	}
	perDijkstra := time.Since(t2) / slowQueries
	fmt.Printf("index-free Dijkstra: %v/query -> index is %.0fx faster\n",
		perDijkstra, float64(perDijkstra)/float64(perQuery))
}
