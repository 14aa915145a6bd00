// Social-aware search: on an Epinions-like trust network, use indexed
// shortest-path distances as the closeness signal the paper's
// introduction motivates ("the distance between two users can represent
// closeness in a social network, which can then be used in a
// social-aware search"). For a query user we rank candidate results by
// graph distance and report the closest ones, all from the 2-hop index.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"parapll"
)

func main() {
	const scale = 0.05 // ~3.8k users; raise toward 1.0 for paper scale
	g, err := parapll.GenerateDataset("Epinions", scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trust network: %d users, %d trust edges\n", g.NumVertices(), g.NumEdges())

	t0 := time.Now()
	idx := parapll.Build(g, parapll.Options{Policy: parapll.Dynamic})
	fmt.Printf("indexed in %.2fs (avg label size %.1f)\n", time.Since(t0).Seconds(), idx.AvgLabelSize())

	// A search produced 200 candidate users; rank them by closeness to
	// the querying user. Real-time interaction budgets demand this be
	// microseconds per candidate — which is exactly what the index gives.
	r := rand.New(rand.NewSource(99))
	me := parapll.Vertex(r.Intn(g.NumVertices()))
	type ranked struct {
		user parapll.Vertex
		dist parapll.Dist
	}
	candidates := make([]ranked, 200)
	t1 := time.Now()
	for i := range candidates {
		u := parapll.Vertex(r.Intn(g.NumVertices()))
		candidates[i] = ranked{user: u, dist: idx.Query(me, u)}
	}
	rankTime := time.Since(t1)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].dist < candidates[j].dist })

	fmt.Printf("ranked 200 candidates for user %d in %v (%.1fus each)\n",
		me, rankTime, rankTime.Seconds()*1e6/200)
	fmt.Println("closest results:")
	for i := 0; i < 5; i++ {
		c := candidates[i]
		if c.dist == parapll.Inf {
			fmt.Printf("  %d: unreachable\n", c.user)
		} else {
			fmt.Printf("  user %-6d closeness distance %d\n", c.user, c.dist)
		}
	}

	// Sanity: the top result's distance matches Dijkstra exactly.
	want := parapll.Dijkstra(g, me)
	if candidates[0].dist != want[candidates[0].user] {
		log.Fatalf("index disagrees with Dijkstra: %d vs %d",
			candidates[0].dist, want[candidates[0].user])
	}
	fmt.Println("verified against Dijkstra: exact")
}
