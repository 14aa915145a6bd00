// Package cluster implements ParaPLL's inter-node level (paper §4.5,
// Algorithm 3): each compute node indexes a static round-robin partition
// of the root vertices with the intra-node engine (internal/core), and
// label sets are synchronized across nodes a configurable number of times
// (the paper's c, swept 1–128 in Figure 7) via MPI-style collectives.
//
// Delayed synchronization trades pruning power for communication: between
// syncs a node prunes only against its local view, producing redundant
// labels (the 2–3× LN growth in Table 5), but every label is still a real
// path length, so the merged index answers all queries exactly
// (Proposition 1). Each node finishes with the union of all nodes'
// labels, so all final indexes are identical.
package cluster

import (
	"fmt"
	"time"

	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/mpi"
	"parapll/internal/task"
	"parapll/internal/trace"
)

// Options configures a cluster build on one node.
type Options struct {
	// Comm connects this node to the rest of the cluster (required).
	Comm mpi.Comm
	// Threads is the per-node worker count; <= 0 means GOMAXPROCS.
	Threads int
	// Policy is the intra-node assignment policy (the inter-node
	// partition is always static, as in the paper's evaluation).
	Policy core.Policy
	// Order is the global computing sequence; nil means
	// graph.DegreeOrder. Every node must use the same order.
	Order []graph.Vertex
	// SyncCount is the paper's c: how many label synchronizations happen
	// over the whole run (>= 1). c=1 means a single sync at the end —
	// the configuration the paper found fastest.
	SyncCount int
	// Progress, when non-nil, receives this node's live build counters
	// (roots done, labels added, work) for concurrent sampling.
	Progress *core.Progress
	// Tracer, when non-nil and enabled, records this rank's timeline:
	// per-root worker spans (via internal/core) plus per-round
	// record/pack/exchange/merge spans and cross-rank comm flow events.
	// Each rank needs its own tracer (its pid is the rank's process
	// lane); see TracerFor for RunLocal.
	Tracer *trace.Tracer
	// TracerFor, when non-nil, supplies each simulated rank's tracer in
	// RunLocal (which clones these Options per rank and cannot share one
	// Tracer across ranks without mixing their lanes). Ignored by Build.
	TracerFor func(rank int) *trace.Tracer
}

// partitionRoots returns the roots owned by `rank` out of `size` nodes:
// ord dealt round-robin, ord[i] to node i mod size (the paper's static
// inter-node split, §5.3). Every node computes the same global split.
func partitionRoots(ord []graph.Vertex, rank, size int) []graph.Vertex {
	var local []graph.Vertex
	for i := rank; i < len(ord); i += size {
		local = append(local, ord[i])
	}
	return local
}

// RoundStats accounts one label synchronization from this node's
// perspective: how many labels (and payload bytes) it contributed and
// merged. With these, the paper's sync-frequency parameter c is
// directly observable — each entry is one of the c rounds, and the
// update counts show how delayed synchronization shifts volume toward
// the final rounds.
type RoundStats struct {
	// UpdatesSent is how many labels this node contributed this round.
	UpdatesSent int64
	// BytesSent is the wire payload this node contributed this round
	// (after varint-delta compression).
	BytesSent int64
	// UpdatesReceived is how many labels were merged from other nodes.
	UpdatesReceived int64
	// BytesReceived is the wire payload merged from other nodes.
	BytesReceived int64
	// PackTime is wall time spent draining, sorting and packing this
	// node's pending labels into the wire frame.
	PackTime time.Duration
	// ExchangeTime is wall time from handing the frame to the allgather
	// until every peer frame arrived.
	ExchangeTime time.Duration
	// MergeTime is wall time decoding peer frames and merging them into
	// the label store.
	MergeTime time.Duration
}

// Stats reports the time breakdown the paper plots in Figure 7 (c)(d).
type Stats struct {
	// CompTime is wall time spent in local Pruned Dijkstra segments.
	CompTime time.Duration
	// CommTime is the whole wall time of the synchronizations: packing
	// the pending updates, the exchange and the merge, every round.
	CommTime time.Duration
	// FinalizeTime is wall time spent converting the label store into
	// the immutable query index after the last sync. It is neither
	// computation (no Dijkstras) nor communication, so it is reported
	// on its own rather than distorting the Figure 7 breakdown.
	FinalizeTime time.Duration
	// Syncs is the number of synchronizations performed.
	Syncs int
	// BytesSent is the total wire payload this node contributed.
	BytesSent int64
	// BytesReceived is the total wire payload merged from other nodes.
	BytesReceived int64
	// LocalRoots is how many Pruned Dijkstra roots this node indexed.
	LocalRoots int
	// WorkOps is this node's machine-independent work (heap pops +
	// relaxations + label scans across all its workers). With q nodes the
	// projected cluster speedup is work(1 node) / max over nodes WorkOps —
	// it captures both load balance and the redundant labels delayed
	// synchronization causes.
	WorkOps int64
	// Rounds has one entry per synchronization, in order (len == Syncs).
	Rounds []RoundStats
}

// Build runs this node's share of the cluster indexing and returns the
// final (cluster-wide, identical on every node) index plus the time
// breakdown. It must be called concurrently on every rank of opt.Comm.
//
// Synchronization is a four-stage pipeline: workers *record* every new
// local label into per-worker pending lists, the lists are sorted and
// *packed* into a varint-delta frame, frames are *exchanged* via
// allgather, and remote frames are *merged* with vertices sharded
// across goroutines. Each round runs to completion on the build
// goroutine before the next segment's searches start.
func Build(g *graph.Graph, opt Options) (*label.Index, *Stats, error) {
	if opt.Comm == nil {
		return nil, nil, fmt.Errorf("cluster: Options.Comm is required")
	}
	c := opt.SyncCount
	if c < 1 {
		c = 1
	}
	ord := opt.Order
	if ord == nil {
		ord = graph.DegreeOrder(g)
	} else if err := graph.CheckOrder(ord, g.NumVertices()); err != nil {
		return nil, nil, fmt.Errorf("cluster: Order must be a permutation of the vertices: %w", err)
	}
	if opt.Threads <= 0 {
		opt.Threads = defaultThreads()
	}

	rank, size := opt.Comm.Rank(), opt.Comm.Size()
	// Static inter-node partition, round-robin.
	local := partitionRoots(ord, rank, size)

	store := &recordingStore{Store: label.NewStore(g.NumVertices())}
	stats := &Stats{LocalRoots: len(local)}
	// Clamp the sync count to at most one sync per root — but the clamp
	// must be identical on every rank or the collective counts diverge
	// and the cluster deadlocks, so clamp by the smallest share any rank
	// can own (⌊n/size⌋), never by len(local).
	if minShare := len(ord) / size; c > minShare {
		c = minShare
		if c < 1 {
			c = 1
		}
	}

	st := &syncState{comm: opt.Comm, n: g.NumVertices(), shards: opt.Threads}
	if opt.Tracer.Enabled() {
		opt.Tracer.SetProcessName(fmt.Sprintf("rank %d", rank))
		st.initTrace(opt.Tracer)
	}

	// Process the local list in c segments, synchronizing after each.
	for seg := 0; seg < c; seg++ {
		lo := seg * len(local) / c
		hi := (seg + 1) * len(local) / c
		segRoots := local[lo:hi]

		t0 := time.Now()
		if len(segRoots) > 0 {
			if opt.Progress != nil {
				opt.Progress.AddRoots(int64(len(segRoots)))
			}
			mgr := newSegmentManager(segRoots, &opt)
			// The cluster path is pinned to the per-root engine: its
			// recording stores attribute appends root-by-root, which the
			// batched engine's deferred commit would break.
			for _, w := range (core.PerRoot{}).Run(g, mgr, store, core.RunConfig{
				Progress: opt.Progress,
				Tracer:   opt.Tracer,
				Phase:    fmt.Sprintf("cluster-seg-%d", seg),
			}) {
				stats.WorkOps += w
			}
		}
		stats.CompTime += time.Since(t0)

		t1 := time.Now()
		round, err := st.run(store)
		if err != nil {
			return nil, nil, err
		}
		stats.addRound(round)
		stats.CommTime += time.Since(t1)
	}

	t2 := time.Now()
	idx := label.NewIndex(store.Store)
	stats.FinalizeTime = time.Since(t2)
	return idx, stats, nil
}

func newSegmentManager(roots []graph.Vertex, opt *Options) task.Manager {
	switch opt.Policy {
	case core.Dynamic:
		return task.NewDynamic(roots, opt.Threads)
	default:
		return task.NewStatic(roots, opt.Threads)
	}
}
