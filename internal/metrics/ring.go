package metrics

import "slices"

// Ring holds the newest values added to it, at most its capacity of
// them, and counts every value it was ever given. It is not safe for
// concurrent use: its owner holds its own lock around it (the flight
// recorder's error and metric-sample rings).
type Ring[T any] struct {
	max   int
	buf   []T // grows to max, then each add overwrites buf[next]
	next  int // once full, the slot of the oldest value
	total uint64
}

// NewRing returns an empty ring holding at most capacity values (at
// least one).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{max: max(capacity, 1)}
}

// Add appends v, evicting the oldest value once the ring is full.
func (r *Ring[T]) Add(v T) {
	r.total++
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.max
}

// Oldest returns a copy of the held values, oldest first.
func (r *Ring[T]) Oldest() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Newest returns a copy of the held values, newest first.
func (r *Ring[T]) Newest() []T {
	out := r.Oldest()
	slices.Reverse(out)
	return out
}

// Total returns how many values were ever added, evicted ones included.
func (r *Ring[T]) Total() uint64 { return r.total }
