// Package atomictest is the atomicfield golden-test corpus.
package atomictest

import (
	"sync"
	"sync/atomic"
)

type counterSet struct {
	n    int64 // accessed atomically: every access must be atomic
	mu   sync.Mutex
	hits int64 // only ever accessed under mu: plain access is fine
}

func inc(c *counterSet) {
	atomic.AddInt64(&c.n, 1)
}

func loadOK(c *counterSet) int64 {
	return atomic.LoadInt64(&c.n)
}

func plainFieldBad(c *counterSet) int64 {
	return c.n // want `non-atomic access to field c.n`
}

func plainStoreBad(c *counterSet) {
	c.n = 0 // want `non-atomic access to field c.n`
}

func lockedFieldOK(c *counterSet) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	return c.hits
}

// run mirrors the delta-stepping pattern: a shared dist slice relaxed
// with CAS by workers, so every other access must be atomic too.
func run(n int) []uint32 {
	dist := make([]uint32, n)
	for i := range dist {
		atomic.StoreUint32(&dist[i], ^uint32(0)) // not yet shared, but atomic all the same
	}
	relax := func(v int, nd uint32) {
		for {
			old := atomic.LoadUint32(&dist[v])
			if nd >= old {
				return
			}
			if atomic.CompareAndSwapUint32(&dist[v], old, nd) {
				return
			}
		}
	}
	relax(0, 1)
	first := dist[0] // want `non-atomic access to element of dist`
	_ = first
	out := make([]uint32, n)
	for i := range out {
		out[i] = atomic.LoadUint32(&dist[i])
	}
	return out
}

// Progress carries typed atomics: copying a value tears them.
type Progress struct {
	Done  atomic.Int64
	Total int64
}

func copyBad(p *Progress) {
	q := *p // want `copying a value of type`
	_ = q
}

func pointerOK(p *Progress) {
	q := p // a pointer copy shares the atomics: fine
	_ = q
}
