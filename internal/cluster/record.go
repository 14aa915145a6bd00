package cluster

import (
	"sync"

	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
)

// update is one locally-generated label pending synchronization
// (Algorithm 3 lines 9–10): vertex, hub, and the hub→vertex distance.
type update struct {
	v, hub graph.Vertex
	d      graph.Dist
}

// pendingList is one worker's private pending-update list. Workers
// append through a stable pointer to their own list, so the hot path
// (one append per label) involves no locks and no shared cache lines.
// The pad keeps adjacent lists' slice headers off each other's cache
// lines when the allocator places them together.
type pendingList struct {
	list []update
	_    [104]byte
}

// recordingStore wraps the shared intra-node label store, additionally
// logging every locally-generated label into a pending-update list for
// the next synchronization. It implements core.PerWorkerStore: each
// worker records into its own pendingList, replacing the previous
// design's single global mutex that serialized every append across all
// workers (the intra-node sync bottleneck — see BenchmarkRecordAppend).
type recordingStore struct {
	*label.Store
	mu       sync.Mutex     // guards views growth and the fallback list
	views    []*pendingList // one per worker id, reused across segments
	fallback []update       // appends arriving outside any worker view
}

// WorkerView implements core.PerWorkerStore. Worker ids are stable
// across a build's segments, so each worker reuses one pendingList
// (and its backing array) for the whole run.
func (rs *recordingStore) WorkerView(w, workers int) core.LabelStore {
	rs.mu.Lock()
	for len(rs.views) <= w {
		rs.views = append(rs.views, &pendingList{})
	}
	pl := rs.views[w]
	rs.mu.Unlock()
	return &workerRecorder{store: rs.Store, pl: pl}
}

// Append is the fallback path for callers that bypass RunWorkers (none
// in the build today, but the LabelStore contract requires it).
func (rs *recordingStore) Append(v, hub graph.Vertex, d graph.Dist) {
	rs.Store.Append(v, hub, d)
	rs.mu.Lock()
	rs.fallback = append(rs.fallback, update{v: v, hub: hub, d: d})
	rs.mu.Unlock()
}

// takePending drains every worker's pending list (and the fallback)
// into dst[:0] and returns it. Callers pass a scratch slice reused
// across rounds; the per-worker backing arrays are kept and reused too.
// Must not run concurrently with workers appending — Build calls it
// between segments, after RunWorkers has joined.
func (rs *recordingStore) takePending(dst []update) []update {
	out := dst[:0]
	rs.mu.Lock()
	out = append(out, rs.fallback...)
	rs.fallback = rs.fallback[:0]
	for _, pl := range rs.views {
		out = append(out, pl.list...)
		pl.list = pl.list[:0]
	}
	rs.mu.Unlock()
	return out
}

// workerRecorder is one worker's private view of the recordingStore:
// reads hit the shared store directly, appends also log into the
// worker-owned pending list.
type workerRecorder struct {
	store *label.Store
	pl    *pendingList
}

// Label implements core.LabelStore.
func (wr *workerRecorder) Label(v graph.Vertex) label.Label {
	return wr.store.Label(v)
}

// Snapshot implements core.LabelStore.
func (wr *workerRecorder) Snapshot(v graph.Vertex) []label.Entry {
	return wr.store.Snapshot(v)
}

// Append implements core.LabelStore.
func (wr *workerRecorder) Append(v, hub graph.Vertex, d graph.Dist) {
	wr.store.Append(v, hub, d)
	wr.pl.list = append(wr.pl.list, update{v: v, hub: hub, d: d})
}
