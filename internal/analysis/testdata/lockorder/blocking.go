// This half of the lockorder corpus holds the direct blocking sites: a
// channel op, mpi call or Wait while any mutex is held lexically, and
// the exemptions (Cond.Wait, select with default, goroutine bodies).
package lockordertest

import "sync"

// World is the mpi-traffic stand-in: method names plus the World type
// name mark its calls as synchronous rank-to-rank traffic.
type World interface {
	Barrier()
	Send(dst int, b []byte)
	Recv(src int) []byte
	Allgather(b []byte) [][]byte
}

type node struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	w    World
	ch   chan int
	wg   sync.WaitGroup
	vals []int
	cond *sync.Cond
}

func sendBad(n *node) {
	n.mu.Lock()
	n.ch <- 1 // want `channel send while holding n.mu`
	n.mu.Unlock()
}

func recvBad(n *node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want `channel receive while holding n.mu`
}

func rangeBad(n *node) {
	n.rw.RLock()
	defer n.rw.RUnlock()
	for v := range n.ch { // want `channel receive \(range\) while holding n.rw`
		_ = v
	}
}

func mpiBad(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.w.Barrier() // want `mpi call n.w.Barrier while holding n.mu`
}

func mpiSendBad(n *node, buf []byte) {
	n.mu.Lock()
	n.w.Send(1, buf) // want `mpi call n.w.Send while holding n.mu`
	n.mu.Unlock()
}

func waitBad(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.wg.Wait() // want `Wait call n.wg.Wait while holding n.mu`
}

func selectBad(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select { // want `select without default while holding n.mu`
	case v := <-n.ch:
		_ = v
	}
}

func tryLockBad(n *node) {
	if !n.mu.TryLock() {
		return
	}
	defer n.mu.Unlock()
	n.ch <- 1 // want `channel send while holding n.mu`
}

func unlockFirstOK(n *node) {
	n.mu.Lock()
	n.vals = append(n.vals, 1)
	n.mu.Unlock()
	n.ch <- 1
}

func condWaitOK(n *node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.vals) == 0 {
		n.cond.Wait() // releases the lock while blocked: the sanctioned pattern
	}
	v := n.vals[0]
	n.vals = n.vals[1:]
	return v
}

func selectDefaultOK(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case n.ch <- 1: // cannot block: the default clause makes it a poll
	default:
	}
}

func goroutineOK(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	go func() {
		n.ch <- 1 // runs outside this critical section
	}()
}

func noLockOK(n *node) {
	n.w.Barrier()
	n.ch <- 1
	n.wg.Wait()
}

func ignoredOK(n *node) {
	n.mu.Lock()
	//parapll:vet-ignore lockorder channel is buffered for every peer, cannot block
	n.ch <- 1
	n.mu.Unlock()
}
