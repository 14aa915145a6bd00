// Package iptest is the call-graph layer's unit-test corpus: mutual
// recursion, interface dispatch, method values, a go edge under a local
// WaitGroup and a load reached through a helper — each shape one test in
// interproc_test.go pins.
package iptest

import (
	"sync"
	"sync/atomic"
)

type box struct {
	snap atomic.Pointer[int]
}

// even/odd are mutually recursive: the fixed point must terminate and
// carry odd's snapshot load around the cycle into both summaries.
func even(b *box, n int) bool {
	if n == 0 {
		return true
	}
	return odd(b, n-1)
}

func odd(b *box, n int) bool {
	if n == 0 {
		return b.snap.Load() != nil
	}
	return even(b, n-1)
}

// Engine mirrors the core.Engine seam: calls through it must resolve to
// every implementation.
type Engine interface {
	Run(n int)
}

type fast struct{}

func (fast) Run(n int) {}

type slow struct {
	cur atomic.Pointer[int]
}

func (s *slow) Run(n int) {
	_ = s.cur.Load()
}

// drive dispatches through the interface: its summary must include
// slow's load even though no concrete type appears here.
func drive(e Engine) {
	e.Run(1)
}

// pick returns a method value without invoking it: an EdgeRef, whose
// facts must NOT leak into pick's own summary.
func pick(s *slow) func(int) {
	return s.Run
}

// fanOut drains a function-local WaitGroup over goroutines that load:
// the literal loads, fanOut does not.
func fanOut(b *box) {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			current(b)
		}()
	}
	wg.Wait()
}

// current loads directly; peek only through current.
func current(b *box) *int {
	return b.snap.Load()
}

func peek(b *box) bool {
	return current(b) != nil
}
