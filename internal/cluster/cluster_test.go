package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/mpi"
	"parapll/internal/mpi/tcpnet"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

func randomGraph(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(40)),
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(40)),
		})
	}
	return graph.FromEdges(n, edges)
}

func checkAllPairs(t *testing.T, g *graph.Graph, x *label.Index) {
	t.Helper()
	n := g.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		want := sssp.Dijkstra(g, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			if got := x.Query(s, u); got != want[u] {
				t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

// TestClusterCorrectness sweeps node counts, sync counts and policies:
// every configuration must answer all pairs exactly and give every node
// the identical final index.
func TestClusterCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(300))
	g := randomGraph(r, 60, 120)
	for _, nodes := range []int{1, 2, 3, 6} {
		for _, syncs := range []int{1, 2, 4} {
			for _, policy := range []core.Policy{core.Static, core.Dynamic} {
				idxs, stats, err := RunLocal(g, nodes, Options{
					Threads: 2, Policy: policy, SyncCount: syncs,
				})
				if err != nil {
					t.Fatalf("nodes=%d syncs=%d policy=%v: %v", nodes, syncs, policy, err)
				}
				checkAllPairs(t, g, idxs[0])
				for rk := 1; rk < nodes; rk++ {
					if !reflect.DeepEqual(idxs[0], idxs[rk]) {
						t.Fatalf("nodes=%d syncs=%d: rank %d index differs from rank 0", nodes, syncs, rk)
					}
				}
				totalRoots := 0
				for _, s := range stats {
					totalRoots += s.LocalRoots
					if s.Syncs < 1 {
						t.Fatalf("node did %d syncs, want >= 1", s.Syncs)
					}
				}
				if totalRoots != g.NumVertices() {
					t.Fatalf("partition covered %d roots, want %d", totalRoots, g.NumVertices())
				}
			}
		}
	}
}

// TestLabelGrowthWithNodes reproduces Table 5's qualitative LN claim:
// fewer syncs across more nodes means more redundant labels, so the
// average label size grows with the node count at c=1 and a single node
// matches the serial size.
func TestLabelGrowthWithNodes(t *testing.T) {
	g := gen.ChungLu(500, 2000, 2.2, 11)
	serial := pll.Build(g, pll.Options{})
	var prev float64
	for _, nodes := range []int{1, 3, 6} {
		idxs, _, err := RunLocal(g, nodes, Options{Threads: 1, SyncCount: 1})
		if err != nil {
			t.Fatal(err)
		}
		ln := idxs[0].AvgLabelSize()
		if nodes == 1 {
			if ln != serial.AvgLabelSize() {
				t.Fatalf("1-node 1-thread LN %.2f != serial %.2f", ln, serial.AvgLabelSize())
			}
		} else if ln < prev {
			t.Fatalf("LN shrank from %.2f to %.2f when growing to %d nodes", prev, ln, nodes)
		}
		prev = ln
	}
}

// TestMoreSyncsSmallerLabels reproduces Figure 7(b): increasing the sync
// count c gives each node a fresher view, so pruning improves and the
// final label count shrinks (or at least never grows).
func TestMoreSyncsSmallerLabels(t *testing.T) {
	g := gen.ChungLu(400, 1600, 2.2, 12)
	var sizes []int64
	for _, c := range []int{1, 4, 16} {
		idxs, _, err := RunLocal(g, 4, Options{Threads: 1, SyncCount: c})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, idxs[0].NumEntries())
	}
	if sizes[2] > sizes[0] {
		t.Fatalf("label count grew with more syncs: c=1 -> %d, c=16 -> %d", sizes[0], sizes[2])
	}
}

func TestSyncAccounting(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(301)), 50, 100)
	_, stats, err := RunLocal(g, 3, Options{Threads: 1, SyncCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv int64
	for _, s := range stats {
		if s.Syncs != 2 {
			t.Fatalf("syncs = %d, want 2", s.Syncs)
		}
		sent += s.BytesSent
		recv += s.BytesReceived
	}
	// Every byte sent is received by nodes-1 peers.
	if recv != 2*sent {
		t.Fatalf("received %d bytes, want 2x sent (%d)", recv, 2*sent)
	}
}

func TestClusterOverTCP(t *testing.T) {
	// End-to-end over real sockets: 3 ranks in-process via TCP loopback.
	g := randomGraph(rand.New(rand.NewSource(302)), 40, 80)
	idxs, err := runTCP(t, g, 3, Options{Threads: 2, Policy: core.Dynamic, SyncCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, g, idxs[0])
	for r := 1; r < len(idxs); r++ {
		if !reflect.DeepEqual(idxs[0], idxs[r]) {
			t.Fatalf("rank %d TCP index differs", r)
		}
	}
}

// TestConnectTCPSingleRank: a TCP communicator of one rank opens no
// socket, and a cluster build over it is the whole index.
func TestConnectTCPSingleRank(t *testing.T) {
	comm, err := tcpnet.Connect(0, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer comm.Close()
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5}})
	idx, _, err := Build(g, Options{Comm: comm, SyncCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := idx.Query(0, 3); d != 12 {
		t.Fatalf("cluster-of-one Query = %d", d)
	}
}

// runTCP is RunLocal over TCP loopback: nodes ranks in this process, each
// joining the mesh at a fresh rendezvous address.
func runTCP(tb testing.TB, g *graph.Graph, nodes int, template Options) ([]*label.Index, error) {
	tb.Helper()
	rootAddr := reserveAddr(tb)
	idxs := make([]*label.Index, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := tcpnet.Connect(r, nodes, rootAddr, "")
			if err != nil {
				errs[r] = err
				return
			}
			defer comm.Close()
			opt := template
			opt.Comm = comm
			idxs[r], _, errs[r] = Build(g, opt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return idxs, nil
}

func TestOptionValidation(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(303)), 10, 10)
	if _, _, err := Build(g, Options{}); err == nil {
		t.Fatal("missing Comm accepted")
	}
	if _, _, err := RunLocal(g, 0, Options{}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, _, err := RunLocal(g, 2, Options{Comm: mpi.World(1)[0]}); err == nil {
		t.Fatal("pre-set Comm accepted")
	}
	comms := mpi.World(1)
	if _, _, err := Build(g, Options{Comm: comms[0], Order: []graph.Vertex{0}}); err == nil {
		t.Fatal("bad order accepted")
	}
}

func TestSyncCountClamped(t *testing.T) {
	// More syncs than local roots must not crash or divide by zero.
	g := randomGraph(rand.New(rand.NewSource(304)), 12, 10)
	idxs, stats, err := RunLocal(g, 3, Options{Threads: 1, SyncCount: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, g, idxs[0])
	for _, s := range stats {
		if s.Syncs > s.LocalRoots && s.LocalRoots > 0 {
			t.Fatalf("syncs %d > local roots %d", s.Syncs, s.LocalRoots)
		}
	}
}

// TestSyncCountClampUnevenPartition is the regression test for a real
// deadlock: when n is not divisible by the node count, ranks own
// different numbers of roots; clamping the sync count per rank made
// ranks disagree on the number of collective rounds and hang forever.
// The clamp must be computed identically on every rank.
func TestSyncCountClampUnevenPartition(t *testing.T) {
	// n = 40, 6 nodes: shares are 7,7,7,7,6,6 — uneven.
	g := randomGraph(rand.New(rand.NewSource(305)), 40, 60)
	done := make(chan struct{})
	var idxs []*label.Index
	var err error
	go func() {
		defer close(done)
		idxs, _, err = RunLocal(g, 6, Options{Threads: 1, SyncCount: 128})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster deadlocked on uneven partition with large sync count")
	}
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, g, idxs[0])
	// All ranks must have performed the same number of syncs.
	_, stats, err := RunLocal(g, 6, Options{Threads: 1, SyncCount: 128})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(stats); r++ {
		if stats[r].Syncs != stats[0].Syncs {
			t.Fatalf("rank %d did %d syncs, rank 0 did %d", r, stats[r].Syncs, stats[0].Syncs)
		}
	}
}

func TestMergeUpdatesValidation(t *testing.T) {
	store := label.NewStore(4)
	if _, err := mergeFrame(store, []byte{1, 2, 3}, 4, 1); err == nil {
		t.Fatal("garbage payload accepted")
	}
	bad := packUpdates(nil, []update{{v: 99, hub: 0, d: 1}}, frameHeader{})
	if _, err := mergeFrame(store, bad, 4, 1); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	good := packUpdates(nil, []update{{v: 1, hub: 2, d: 7}, {v: 1, hub: 3, d: 8}, {v: 2, hub: 0, d: 9}}, frameHeader{})
	if n, err := mergeFrame(store, good, 4, 2); err != nil || n != 3 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	if store.Len(1) != 2 || store.Len(2) != 1 {
		t.Fatalf("merge produced lens %d,%d", store.Len(1), store.Len(2))
	}
}

// reserveAddr grabs an ephemeral loopback port for the TCP rendezvous.
func reserveAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestPerRoundAccounting is the observability acceptance check: a
// cluster build over the chanworld transport must report nonzero
// per-round sync volume, consistent with the run totals.
func TestPerRoundAccounting(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(302)), 60, 120)
	_, stats, err := RunLocal(g, 3, Options{Threads: 2, SyncCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for node, s := range stats {
		if len(s.Rounds) != s.Syncs || s.Syncs != 3 {
			t.Fatalf("node %d: %d round entries for %d syncs", node, len(s.Rounds), s.Syncs)
		}
		var sent, recv int64
		for i, r := range s.Rounds {
			if r.BytesSent == 0 || r.UpdatesSent == 0 {
				t.Errorf("node %d round %d: zero sent volume (%+v)", node, i, r)
			}
			if r.BytesReceived == 0 || r.UpdatesReceived == 0 {
				t.Errorf("node %d round %d: zero received volume (%+v)", node, i, r)
			}
			if raw := r.UpdatesSent * fixedUpdateBytes; r.BytesSent > raw {
				t.Errorf("node %d round %d: compressed frame (%d B) larger than fixed-width (%d B)",
					node, i, r.BytesSent, raw)
			}
			sent += r.BytesSent
			recv += r.BytesReceived
		}
		if sent != s.BytesSent || recv != s.BytesReceived {
			t.Errorf("node %d: rounds sum to %d/%d bytes, totals are %d/%d",
				node, sent, recv, s.BytesSent, s.BytesReceived)
		}
	}
	// Every node's labels crossed the wire: the union of sent updates
	// must cover each node's locally-generated labels.
}

// TestProgressOnCluster wires a core.Progress through a cluster build.
func TestProgressOnCluster(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(303)), 40, 80)
	nodes := 2
	comms := mpi.World(nodes)
	progs := make([]*core.Progress, nodes)
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for r := 0; r < nodes; r++ {
		progs[r] = &core.Progress{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, _, errs[r] = Build(g, Options{
				Comm: comms[r], Threads: 2, SyncCount: 2, Progress: progs[r],
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", r, err)
		}
	}
	var roots int64
	for r, p := range progs {
		s := p.Snapshot()
		if s.RootsDone != s.TotalRoots || s.RootsDone == 0 {
			t.Errorf("node %d: roots %d/%d", r, s.RootsDone, s.TotalRoots)
		}
		if s.LabelsAdded == 0 || s.WorkOps == 0 {
			t.Errorf("node %d: empty progress %+v", r, s)
		}
		roots += s.RootsDone
	}
	if roots != int64(g.NumVertices()) {
		t.Errorf("cluster indexed %d roots, graph has %d vertices", roots, g.NumVertices())
	}
}

// TestOrderValidationRejectsDuplicates: a duplicated vertex in the
// global order must be rejected, not silently build a corrupt index.
func TestOrderValidationRejectsDuplicates(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(304)), 10, 10)
	ord := order.Degree(g)
	ord[1] = ord[0] // duplicate
	comms := mpi.World(1)
	if _, _, err := Build(g, Options{Comm: comms[0], Order: ord}); err == nil {
		t.Fatal("duplicate-vertex order accepted")
	}
}
