package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"parapll/internal/label"
	"parapll/internal/mpi"
	"parapll/internal/mpi/tcpnet"
)

// TestNodeDeathFailsFast injects a node failure: rank 2 never joins the
// computation and closes its communicator instead. The surviving ranks
// must return an error from Build promptly — not hang in the sync
// collective waiting for a peer that will never arrive.
func TestNodeDeathFailsFast(t *testing.T) {
	leakCheck(t)
	g := randomGraph(rand.New(rand.NewSource(320)), 40, 80)
	comms := mpi.World(3)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, _, errs[rank] = Build(g, Options{Comm: comms[rank], Threads: 1, SyncCount: 4})
		}(rank)
	}
	// The dead node: close after a short delay so survivors are already
	// inside the build.
	time.Sleep(10 * time.Millisecond)
	comms[2].Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivors hung after peer death")
	}
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d returned no error despite peer death", rank)
		}
	}
}

// TestTCPNodeDeathFailsFast is the same failure over real sockets: the
// dying rank closes its TCP connections mid-run.
func TestTCPNodeDeathFailsFast(t *testing.T) {
	leakCheck(t)
	g := randomGraph(rand.New(rand.NewSource(321)), 40, 80)
	rootAddr := reserveAddr(t)
	const nodes = 3
	comms := make([]mpi.Comm, nodes)
	var setup sync.WaitGroup
	for r := 0; r < nodes; r++ {
		setup.Add(1)
		go func(r int) {
			defer setup.Done()
			c, err := tcpnet.Connect(r, nodes, rootAddr, "")
			if err != nil {
				t.Errorf("rank %d connect: %v", r, err)
				return
			}
			comms[r] = c
		}(r)
	}
	setup.Wait()
	if t.Failed() {
		return
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer comms[rank].Close()
			_, _, errs[rank] = Build(g, Options{Comm: comms[rank], Threads: 1, SyncCount: 4})
		}(rank)
	}
	time.Sleep(10 * time.Millisecond)
	comms[2].Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivors hung after TCP peer death")
	}
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d returned no error despite TCP peer death", rank)
		}
	}
}

// TestCorruptSyncPayloadRejected feeds a malformed sync frame directly
// into the merge path (simulating a buggy or hostile peer) and checks it
// is rejected instead of corrupting the store.
func TestCorruptSyncPayloadRejected(t *testing.T) {
	store := label.NewStore(8)
	before := store.TotalEntries()
	if _, err := mergeFrame(store, []byte{0xde, 0xad, 0xbe}, 8, 2); err == nil {
		t.Fatal("garbage frame accepted")
	}
	if store.TotalEntries() != before {
		t.Fatal("rejected frame still modified the store")
	}
}
