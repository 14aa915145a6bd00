// Package oracle defines the one query surface every distance index in
// this repository serves. Two index implementations answer the paper's
// QUERY(s,t,L) over a weighted undirected graph: the 2-hop index
// (label.Index, including its mmap-backed form) and the insert-maintained
// dynamic index (dynamic.Index). Server, bench and the CLIs program
// against this interface instead of the concrete types, so a serving
// deployment can swap index kinds — or swap a heap-decoded index for a
// zero-copy mmap one — without touching call sites.
package oracle

import (
	"parapll/internal/dynamic"
	"parapll/internal/graph"
	"parapll/internal/label"
)

// Oracle answers exact point-to-point distance queries over a fixed
// vertex set [0, NumVertices). Implementations are safe for concurrent
// queries (and dynamic.Index for queries beside one InsertEdge at a
// time). Out-of-range ids panic — uniformly,
// including for s == t (label.Index documents a descriptive message);
// callers fronting untrusted input must validate against NumVertices
// first, as the HTTP server and CLIs do.
type Oracle interface {
	// NumVertices returns the size of the indexed vertex set.
	NumVertices() int
	// Query returns the exact distance between s and t, graph.Inf when
	// the pair is disconnected.
	Query(s, t graph.Vertex) graph.Dist
	// QueryWithHub also reports the meeting hub achieving the minimum
	// (-1 for disconnected pairs; (0, s) for s == t).
	QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex)
	// QueryBatch answers many pairs, fanning out over `threads`
	// goroutines (<= 0 means GOMAXPROCS).
	QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist
}

// Every index implementation must satisfy the interface; a missing or
// drifted method is a compile error here, not a runtime surprise.
var (
	_ Oracle = (*label.Index)(nil)
	_ Oracle = (*dynamic.Index)(nil)
)
