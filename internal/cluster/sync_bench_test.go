package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
)

// --- Recording: global mutex (the old design) vs per-worker lists ---

// legacyRecordingStore is the pre-refactor design kept here as the
// benchmark baseline: every worker append takes one global mutex.
type legacyRecordingStore struct {
	*label.Store
	mu      sync.Mutex
	pending []update
}

func (rs *legacyRecordingStore) Append(v graph.Vertex, hub graph.Vertex, d graph.Dist) {
	rs.Store.Append(v, hub, d)
	rs.mu.Lock()
	rs.pending = append(rs.pending, update{v: v, hub: hub, d: d})
	rs.mu.Unlock()
}

// BenchmarkRecordAppend measures the record stage's hot path under
// contention: `workers` goroutines each appending `perWorker` labels.
// The per-worker pending lists must beat the global mutex.
func BenchmarkRecordAppend(b *testing.B) {
	const n, workers, perWorker = 4096, 8, 4096
	b.Run("global-mutex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rs := &legacyRecordingStore{Store: label.NewStore(n)}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := 0; j < perWorker; j++ {
						rs.Append(graph.Vertex((j*workers+w)%n), graph.Vertex(w), graph.Dist(j+1))
					}
				}(w)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(workers*perWorker), "appends/op")
	})
	b.Run("per-worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rs := &recordingStore{Store: label.NewStore(n)}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					view := rs.WorkerView(w, workers)
					for j := 0; j < perWorker; j++ {
						view.Append(graph.Vertex((j*workers+w)%n), graph.Vertex(w), graph.Dist(j+1))
					}
				}(w)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(workers*perWorker), "appends/op")
	})
}

// --- Packing: fixed 12-byte records (old wire format) vs varint-delta ---

// fixedUpdateBytes is one update's size in the fixed-width format.
const fixedUpdateBytes = 12

// packFixed12 is the pre-refactor wire format kept as the baseline:
// three little-endian uint32s per update, no sorting required.
func packFixed12(dst []byte, list []update) []byte {
	buf := dst[:0]
	for _, u := range list {
		var rec [fixedUpdateBytes]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(u.v))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(u.hub))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(u.d))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// benchUpdates builds a label-shaped pending list: hubs concentrated
// (pruning favors high-order vertices), distances in the test graphs'
// range.
func benchUpdates(n, count int, seed int64) []update {
	r := rand.New(rand.NewSource(seed))
	seen := map[[2]graph.Vertex]bool{}
	list := make([]update, 0, count)
	for len(list) < count {
		v := graph.Vertex(r.Intn(n))
		hub := graph.Vertex(r.Intn(n / 4))
		if seen[[2]graph.Vertex{v, hub}] {
			continue
		}
		seen[[2]graph.Vertex{v, hub}] = true
		list = append(list, update{v: v, hub: hub, d: graph.Dist(1 + r.Intn(4000))})
	}
	return list
}

// BenchmarkPackUpdates compares the wire encodings, reporting the
// achieved bytes per update (fixed format: always 12).
func BenchmarkPackUpdates(b *testing.B) {
	const n, count = 8192, 32768
	list := benchUpdates(n, count, 600)
	b.Run("fixed-12B", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = packFixed12(buf, list)
		}
		b.ReportMetric(float64(len(buf))/count, "B/update")
	})
	b.Run("varint-delta", func(b *testing.B) {
		sorted := append([]update(nil), list...)
		sortUpdates(sorted)
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = packUpdates(buf, sorted, frameHeader{})
		}
		b.ReportMetric(float64(len(buf))/count, "B/update")
		b.ReportMetric(float64(count*fixedUpdateBytes)/float64(len(buf)), "ratio")
	})
	b.Run("sort+varint-delta", func(b *testing.B) {
		// Including the sort, since the fixed format doesn't need one.
		scratch := make([]update, len(list))
		var buf []byte
		for i := 0; i < b.N; i++ {
			copy(scratch, list)
			sortUpdates(scratch)
			buf = packUpdates(buf, scratch, frameHeader{})
		}
		b.ReportMetric(float64(len(buf))/count, "B/update")
	})
}

// BenchmarkMergeUpdates compares the serial merge against the
// vertex-sharded parallel merge on decoded peer lists. The shape
// matches a real round: every vertex gets a batch of labels, so the
// per-vertex groups are tens of entries and BulkAppend amortizes.
func BenchmarkMergeUpdates(b *testing.B) {
	const n, peers, perPeer = 2048, 5, 32768
	lists := make([][]update, peers)
	for p := range lists {
		lists[p] = benchUpdates(n, perPeer, int64(700+p))
		sortUpdates(lists[p])
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := label.NewStore(n)
				b.StartTimer()
				mergeShards(store, lists, shards)
			}
		})
	}
}

// --- End-to-end: the cluster build on both transports ---

// benchGraph is the shared cluster-build workload: a power-law graph
// big enough that each of the c=4 segments does real Dijkstra work.
func benchGraph() *graph.Graph {
	return gen.ChungLu(3000, 12000, 2.2, 42)
}

// BenchmarkClusterSyncChan runs the full cluster build on the
// in-process channel transport at c=4. Wall time is the headline;
// comm-ms (the max over nodes of Stats.CommTime, the whole sync time)
// and comp-ms show where the time went.
func BenchmarkClusterSyncChan(b *testing.B) {
	g := benchGraph()
	var comm, comp float64
	for i := 0; i < b.N; i++ {
		_, sts, err := RunLocal(g, 4, Options{Threads: 2, SyncCount: 4})
		if err != nil {
			b.Fatal(err)
		}
		var iterComm, iterComp float64
		for _, s := range sts {
			iterComm = max(iterComm, s.CommTime.Seconds())
			iterComp = max(iterComp, s.CompTime.Seconds())
		}
		comm += iterComm
		comp += iterComp
	}
	b.ReportMetric(comm*1e3/float64(b.N), "comm-ms")
	b.ReportMetric(comp*1e3/float64(b.N), "comp-ms")
}

// BenchmarkClusterSyncTCP is the same build over real loopback sockets,
// where the exchange has genuine latency.
func BenchmarkClusterSyncTCP(b *testing.B) {
	g := benchGraph()
	for i := 0; i < b.N; i++ {
		if _, err := runTCP(b, g, 3, Options{Threads: 2, SyncCount: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
