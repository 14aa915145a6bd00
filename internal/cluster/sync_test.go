package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/mpi"
	"parapll/internal/pll"
)

// randomUpdates synthesizes a sorted, duplicate-free pending list the
// way a build round would produce one: unique (v, hub) pairs, finite
// distances.
func randomUpdates(r *rand.Rand, n, count int) []update {
	seen := map[[2]graph.Vertex]bool{}
	var list []update
	for len(list) < count {
		v := graph.Vertex(r.Intn(n))
		hub := graph.Vertex(r.Intn(n))
		if seen[[2]graph.Vertex{v, hub}] {
			continue
		}
		seen[[2]graph.Vertex{v, hub}] = true
		list = append(list, update{v: v, hub: hub, d: graph.Dist(r.Intn(1 << 20))})
	}
	sortUpdates(list)
	return list
}

func TestSyncFrameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(500))
	for _, count := range []int{0, 1, 7, 100, 2000} {
		n := 300
		list := randomUpdates(r, n, count)
		frame := packUpdates(nil, list, frameHeader{})
		_, got, err := decodeFrame(frame, n)
		if err != nil {
			t.Fatalf("count=%d: decode: %v", count, err)
		}
		if len(got) != len(list) {
			t.Fatalf("count=%d: decoded %d updates", count, len(got))
		}
		for i := range list {
			if got[i] != list[i] {
				t.Fatalf("count=%d: update %d = %+v, want %+v", count, i, got[i], list[i])
			}
		}
	}
}

// TestSyncFrameScratchReuse: packing different rounds into the same
// scratch buffer must produce identical frames to packing fresh — the
// reuse that removes the per-round allocation must not leak state.
func TestSyncFrameScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	var scratch []byte
	for round := 0; round < 5; round++ {
		list := randomUpdates(r, 200, 50+round*137)
		scratch = packUpdates(scratch, list, frameHeader{})
		fresh := packUpdates(nil, list, frameHeader{})
		if !bytes.Equal(scratch, fresh) {
			t.Fatalf("round %d: scratch-packed frame differs from fresh", round)
		}
	}
}

// TestSyncFrameCompression: on a realistic sorted pending list the
// varint-delta frame must be at least 2x smaller than the fixed 12-byte
// format (the acceptance bar for the wire encoding).
func TestSyncFrameCompression(t *testing.T) {
	r := rand.New(rand.NewSource(502))
	// Label-shaped data: hot hubs (small ids after degree ordering are
	// not guaranteed, but gaps within a vertex group are bounded by n),
	// distances like the test graphs' (weights 1-40, short hop counts).
	n := 2000
	list := make([]update, 0, 8000)
	seen := map[[2]graph.Vertex]bool{}
	for len(list) < cap(list) {
		v := graph.Vertex(r.Intn(n))
		hub := graph.Vertex(r.Intn(n / 4)) // pruning concentrates hubs
		if seen[[2]graph.Vertex{v, hub}] {
			continue
		}
		seen[[2]graph.Vertex{v, hub}] = true
		list = append(list, update{v: v, hub: hub, d: graph.Dist(1 + r.Intn(4000))})
	}
	sortUpdates(list)
	frame := packUpdates(nil, list, frameHeader{})
	raw := len(list) * fixedUpdateBytes
	if 2*len(frame) > raw {
		t.Fatalf("frame %d bytes for %d raw: compression below 2x", len(frame), raw)
	}
}

// TestSyncFrameCorruptPrefixes: every strict prefix of a valid frame
// must be rejected — a truncated transfer can never half-apply.
func TestSyncFrameCorruptPrefixes(t *testing.T) {
	list := randomUpdates(rand.New(rand.NewSource(503)), 100, 60)
	frame := packUpdates(nil, list, frameHeader{})
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := decodeFrame(frame[:cut], 100); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(frame))
		}
	}
	if _, _, err := decodeFrame(append(frame[:len(frame):len(frame)], 0), 100); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSyncFrameCorruptMutations is the fuzz-ish pass: flip bytes of a
// valid frame and require decode to either error out or produce only
// in-range, finite updates — never panic, never yield poison.
func TestSyncFrameCorruptMutations(t *testing.T) {
	r := rand.New(rand.NewSource(504))
	const n = 100
	list := randomUpdates(r, n, 80)
	frame := packUpdates(nil, list, frameHeader{})
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), frame...)
		for flips := 1 + r.Intn(3); flips > 0; flips-- {
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		}
		_, got, err := decodeFrame(mut, n)
		if err != nil {
			continue
		}
		for _, u := range got {
			if int(u.v) < 0 || int(u.v) >= n || int(u.hub) < 0 || int(u.hub) >= n {
				t.Fatalf("trial %d: decoded out-of-range update %+v", trial, u)
			}
			if u.d >= graph.Inf {
				t.Fatalf("trial %d: decoded infinite distance %+v", trial, u)
			}
		}
	}
}

// TestSyncFrameRejectsBadDeltas: specific structural attacks — a hub
// delta that walks past n, a vertex delta that walks past n, and a
// group count that disagrees with the total.
func TestSyncFrameRejectsBadDeltas(t *testing.T) {
	mk := func(fields ...uint64) []byte {
		// version + zero rank/round trace words, then the fields.
		buf := []byte{syncFormatVersion, 0, 0}
		for _, f := range fields {
			buf = binary.AppendUvarint(buf, f)
		}
		return buf
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"vertex gap past n", mk(1, 50, 1, 0, 7)},
		{"hub gap past n", mk(1, 0, 1, 50, 7)},
		{"second vertex past n", mk(2, 9, 1, 0, 7, 5, 1, 0, 7)},
		{"second hub past n", mk(2, 0, 2, 3, 7, 9, 7)},
		{"zero group count", mk(1, 0, 0)},
		{"group count exceeds total", mk(1, 0, 2, 0, 7, 0, 7)},
		{"update count lies high", mk(9, 0, 1, 0, 7)},
		{"empty frame", nil},
		{"version only", []byte{syncFormatVersion}},
		{"unknown version", append([]byte{99}, mk(1, 0, 1, 0, 7)[1:]...)},
	}
	for _, tc := range cases {
		if _, _, err := decodeFrame(tc.frame, 10); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSyncFrameRejectsInfDistance: a frame carrying d >= graph.Inf (the
// unreachable sentinel, or a 64-bit value that would truncate to a small
// one) must be rejected before it can poison AddDist's saturating
// arithmetic, and the largest finite distance must arrive as it is: the
// guard is on the distance, not the shape.
func TestSyncFrameRejectsInfDistance(t *testing.T) {
	for _, tc := range []struct {
		d      uint64
		accept bool
	}{
		{uint64(graph.Inf) - 1, true},
		{uint64(graph.Inf), false},
		{uint64(graph.Inf) + 1, false},
		{1 << 40, false},
	} {
		frame := []byte{syncFormatVersion, 0, 0} // zero trace words
		frame = binary.AppendUvarint(frame, 1)   // one update
		frame = binary.AppendUvarint(frame, 3)   // v = 3
		frame = binary.AppendUvarint(frame, 1)   // one entry
		frame = binary.AppendUvarint(frame, 2)   // hub = 2
		frame = binary.AppendUvarint(frame, tc.d)
		_, ups, err := decodeFrame(frame, 10)
		switch {
		case !tc.accept && err == nil:
			t.Errorf("d=%d accepted as %v", tc.d, ups)
		case tc.accept && err != nil:
			t.Errorf("d=%d rejected: %v", tc.d, err)
		case tc.accept && (len(ups) != 1 || uint64(ups[0].d) != tc.d):
			t.Errorf("d=%d decoded as %v", tc.d, ups)
		}
	}
}

// TestMergeShardsMatchesSerial: the sharded parallel merge must apply
// exactly the same entries as a serial merge, for any shard count.
func TestMergeShardsMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	n := 64
	// Big enough that mergeShards actually shards (>= mergeShardMin).
	listA := randomUpdates(r, n, 2000)
	listB := randomUpdates(r, n, 1200)
	ref := label.NewStore(n)
	mergeShards(ref, [][]update{listA, listB}, 1)
	for _, shards := range []int{2, 3, 8} {
		st := label.NewStore(n)
		mergeShards(st, [][]update{listA, listB}, shards)
		if st.TotalEntries() != ref.TotalEntries() {
			t.Fatalf("shards=%d: %d entries, want %d", shards, st.TotalEntries(), ref.TotalEntries())
		}
		refIdx := label.NewIndex(ref)
		gotIdx := label.NewIndex(st)
		if !reflect.DeepEqual(refIdx, gotIdx) {
			t.Fatalf("shards=%d: merged index differs from serial merge", shards)
		}
	}
}

// TestOverlappedSupersetInvariant is the correctness acceptance test
// for delayed synchronization against serial PLL, on seeded random
// graphs. Proposition 1 says labels a node has not seen yet only weaken
// pruning, never correctness; concretely the cluster build must satisfy:
//
//  1. every pair is answered exactly (checkAllPairs vs. Dijkstra);
//  2. every rank finishes with the identical final index;
//  3. no label underestimates the true distance — every (v, hub, d)
//     entry has d >= dist(hub, v), with serial PLL as the exact oracle
//     (weakened pruning can add redundant labels, and a redundant label
//     is allowed to be a non-shortest real path length, but a label
//     below the true distance would poison queries).
//
// Note the label SET is not literally a superset of serial PLL's:
// redundant labels from early roots strengthen the pruning of later
// roots, so the cluster build can legitimately skip pairs serial PLL
// records — the superset that Proposition 1 guarantees is over
// *coverage* (checked by 1) and over each node's own contribution
// (checked by TestPipelineNoLoss). Runs in short mode so
// scripts/check.sh exercises it under -race, where the sharded merge's
// goroutines append to the store the next segment's workers read.
func TestOverlappedSupersetInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(330))
	for trial := 0; trial < 2; trial++ {
		g := randomGraph(r, 45, 90)
		ord := graph.DegreeOrder(g)
		serial := pll.Build(g, pll.Options{Order: ord})
		idxs, stats, err := RunLocal(g, 4, Options{Threads: 2, SyncCount: 4, Order: ord})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAllPairs(t, g, idxs[0])
		for rk := 1; rk < len(idxs); rk++ {
			if !reflect.DeepEqual(idxs[0], idxs[rk]) {
				t.Fatalf("trial %d: rank %d index differs", trial, rk)
			}
		}
		for v := 0; v < idxs[0].NumVertices(); v++ {
			hubs, dists := idxs[0].Label(graph.Vertex(v), nil, nil)
			for i, h := range hubs {
				if truth := serial.Query(h, graph.Vertex(v)); dists[i] < truth {
					t.Fatalf("trial %d: label (%d,%d)=%d underestimates true distance %d",
						trial, v, h, dists[i], truth)
				}
			}
		}
		for node, s := range stats {
			if s.Syncs != 4 || len(s.Rounds) != 4 {
				t.Fatalf("trial %d node %d: %d syncs / %d rounds, want 4",
					trial, node, s.Syncs, len(s.Rounds))
			}
		}
	}
}

// TestPipelineNoLoss drives the sync pipeline (record → pack → exchange
// → merge) directly with known label sets and proves the literal
// superset invariant: every update any node records ends up in EVERY
// node's store, round after round. A dropped or misrouted label would
// break the "all ranks converge to the union" property Build relies on.
// The per-round accounting must add up to what was recorded.
func TestPipelineNoLoss(t *testing.T) {
	const nodes, n, rounds, perRound = 3, 64, 3, 21
	comms := mpi.World(nodes)
	stores := make([]*label.Store, nodes)
	recorded := make([][]update, nodes)
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for rank := 0; rank < nodes; rank++ {
		// Deterministic, globally unique (v, hub) pairs per node.
		for rd := 0; rd < rounds; rd++ {
			for j := 0; j < perRound; j++ {
				recorded[rank] = append(recorded[rank], update{
					v:   graph.Vertex(j % 8),
					hub: graph.Vertex(rank*rounds*(perRound/3) + rd*(perRound/3) + j/3),
					d:   graph.Dist(1 + rank*100 + rd*10 + j),
				})
			}
		}
	}
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rs := &recordingStore{Store: label.NewStore(n)}
			stores[rank] = rs.Store
			st := &syncState{comm: comms[rank], n: n, shards: 2}
			stats := &Stats{}
			for rd := 0; rd < rounds; rd++ {
				// Two workers record the round's labels side by side,
				// as a segment's workers do.
				var workers sync.WaitGroup
				for w := 0; w < 2; w++ {
					workers.Add(1)
					go func(w int) {
						defer workers.Done()
						view := rs.WorkerView(w, 2)
						for i := rd*perRound + w; i < (rd+1)*perRound; i += 2 {
							u := recorded[rank][i]
							view.Append(u.v, u.hub, u.d)
						}
					}(w)
				}
				workers.Wait()
				round, err := st.run(rs)
				if err != nil {
					errs[rank] = err
					return
				}
				if round.UpdatesSent != perRound || round.UpdatesReceived != (nodes-1)*perRound {
					errs[rank] = fmt.Errorf("round %d sent %d / merged %d updates, want %d / %d",
						rd, round.UpdatesSent, round.UpdatesReceived, perRound, (nodes-1)*perRound)
					return
				}
				stats.addRound(round)
			}
			if stats.Syncs != rounds {
				errs[rank] = fmt.Errorf("synced %d rounds, want %d", stats.Syncs, rounds)
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for owner := 0; owner < nodes; owner++ {
		for _, u := range recorded[owner] {
			for rank, st := range stores {
				found := false
				for _, e := range st.Snapshot(u.v).AppendTo(nil) {
					if e.Hub == u.hub && e.D == u.d {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("update %+v recorded by node %d missing from node %d's store", u, owner, rank)
				}
			}
		}
	}
}

// TestPerWorkerRecording: the per-worker pending lists must capture
// exactly the set of locally-appended labels, with no loss and no
// duplication, even with many workers appending concurrently.
func TestPerWorkerRecording(t *testing.T) {
	rs := &recordingStore{Store: label.NewStore(128)}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := rs.WorkerView(w, workers)
			for i := 0; i < perWorker; i++ {
				view.Append(graph.Vertex(i%128), graph.Vertex(w), graph.Dist(i+1))
			}
		}(w)
	}
	wg.Wait()
	got := rs.takePending(nil)
	if len(got) != workers*perWorker {
		t.Fatalf("recorded %d updates, want %d", len(got), workers*perWorker)
	}
	if rs.Store.TotalEntries() != int64(workers*perWorker) {
		t.Fatalf("store has %d entries, want %d", rs.Store.TotalEntries(), workers*perWorker)
	}
	perHub := map[graph.Vertex]int{}
	for _, u := range got {
		perHub[u.hub]++
	}
	for w := 0; w < workers; w++ {
		if perHub[graph.Vertex(w)] != perWorker {
			t.Fatalf("worker %d recorded %d updates, want %d", w, perHub[graph.Vertex(w)], perWorker)
		}
	}
	// Drained: a second take yields nothing.
	if again := rs.takePending(nil); len(again) != 0 {
		t.Fatalf("second takePending returned %d updates", len(again))
	}
	// The fallback path still records.
	rs.Append(3, 5, 7)
	if got := rs.takePending(nil); len(got) != 1 || got[0] != (update{v: 3, hub: 5, d: 7}) {
		t.Fatalf("fallback append not recorded: %+v", got)
	}
}
