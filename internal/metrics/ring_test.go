package metrics

import (
	"slices"
	"testing"
)

// TestRing: the ring holds exactly its capacity of the newest values,
// reads them oldest and newest first across the wrap, and counts every
// add.
func TestRing(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Oldest(); got == nil || len(got) != 0 {
		t.Fatalf("empty ring reads %v, want an empty non-nil slice", got)
	}
	for i := 0; i < 4; i++ {
		r.Add(i)
	}
	if got := r.Oldest(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("full ring oldest first = %v, want [0 1 2 3]", got)
	}
	for i := 4; i < 10; i++ {
		r.Add(i)
	}
	if got := r.Oldest(); !slices.Equal(got, []int{6, 7, 8, 9}) {
		t.Fatalf("wrapped ring oldest first = %v, want [6 7 8 9]", got)
	}
	if got := r.Newest(); !slices.Equal(got, []int{9, 8, 7, 6}) {
		t.Fatalf("wrapped ring newest first = %v, want [9 8 7 6]", got)
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	// A read is a copy: writing to it leaves the ring alone.
	r.Oldest()[0] = -1
	if r.Oldest()[0] != 6 {
		t.Fatal("Oldest returned the ring's own storage")
	}
	if one := NewRing[int](0); one.max != 1 {
		t.Fatalf("capacity 0 clamps to %d, want 1", one.max)
	}
}
