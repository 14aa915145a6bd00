package cluster

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/mpi"
)

// heldComm holds the first message its rank sends in each of the first
// `rounds` allgathers (a ring allgather sends Size()-1 messages a rank,
// one after the other): it says which round on held, then waits for
// release.
type heldComm struct {
	mpi.Comm
	rounds  int
	sends   atomic.Int64
	held    chan int
	release chan struct{}
}

func (c *heldComm) Send(to int, tag mpi.Tag, data []byte) error {
	perRound := int64(c.Size() - 1)
	if n := c.sends.Add(1) - 1; n%perRound == 0 && n/perRound < int64(c.rounds) {
		c.held <- int(n / perRound)
		<-c.release
	}
	return c.Comm.Send(to, tag, data)
}

// roundsParked reports whether every goroutine a sync round started is
// parked (on a channel, a lock or a WaitGroup) or gone: none is
// runnable, including one that has not run yet.
func roundsParked() bool {
	for _, g := range moduleGoroutines() {
		head, _, _ := strings.Cut(g, "\n")
		if strings.Contains(g, "created by parapll/internal/cluster.(*syncState).start") &&
			(strings.Contains(head, "[runnable") || strings.Contains(head, "[running")) {
			return false
		}
	}
	return true
}

// TestHeldAllgatherKeepsWorkersRunning holds rank 0's part of every sync
// round but the last, which stalls that round on every rank of the ring.
// In overlapped mode the wait belongs to the background exchange alone:
// no lock a worker needs may be held across it, so while round k is
// held every rank's workers go on to finish roots of segment k+1. Then
// the round is released, and every rank ends with the same exact index.
//
// Each build goroutine is held after starting a round until every
// round's goroutine has parked, so the next segment's workers always ask
// for their views after the round took whatever it holds across its
// wait: a lock held there is red on every run, not only when the
// scheduler lets the round win the race.
func TestHeldAllgatherKeepsWorkersRunning(t *testing.T) {
	leakCheck(t)
	roundStarted = func() {
		for !roundsParked() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	t.Cleanup(func() { roundStarted = nil })
	const nodes, syncs = 3, 4
	g := randomGraph(rand.New(rand.NewSource(330)), 90, 200)
	comms := mpi.World(nodes)
	held := &heldComm{Comm: comms[0], rounds: syncs - 1, held: make(chan int), release: make(chan struct{})}
	comms[0] = held

	ord := graph.DegreeOrder(g)
	progs := make([]*core.Progress, nodes)
	local := make([]int64, nodes) // roots rank r owns
	idxs := make([]*label.Index, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		progs[r] = &core.Progress{}
		local[r] = int64(len(partitionRoots(ord, r, nodes, PartitionRoundRobin, 0)))
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			idxs[r], _, errs[r] = Build(g, Options{
				Comm: comms[r], Threads: 2, SyncCount: syncs, Overlap: true, Progress: progs[r],
			})
		}(r)
	}

	for k := 0; k < syncs-1; k++ {
		<-held.held
		for deadline := time.Now().Add(10 * time.Second); !t.Failed(); time.Sleep(time.Millisecond) {
			stalled := -1
			for r, p := range progs {
				if p.Snapshot().RootsDone <= int64(k+1)*local[r]/syncs { // none of segment k+1 yet
					stalled = r
				}
			}
			if stalled < 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("rank %d finished %d roots, none of segment %d, while round %d was held",
					stalled, progs[stalled].Snapshot().RootsDone, k+1, k)
			}
		}
		held.release <- struct{}{}
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkAllPairs(t, g, idxs[0])
	for r := 1; r < nodes; r++ {
		if !reflect.DeepEqual(idxs[r], idxs[0]) {
			t.Fatalf("rank %d's index differs from rank 0's", r)
		}
	}
}
