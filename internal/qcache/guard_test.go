//go:build !race

// AllocsPerRun is meaningless under the race detector (its
// instrumentation allocates, and sync.Pool drops items at random), so
// the guards live behind the same tag as internal/label's.

package qcache

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"parapll/internal/graph"
)

// TestTableGuards pins what the table was built for: no allocation per
// operation, an all-miss batch that allocates only its result, a slot
// the garbage collector has nothing to trace in, and a footprint of at
// most 1.5 MB at the binary's default size.
func TestTableGuards(t *testing.T) {
	c := New(binaryEntries)
	v := graph.Vertex(0)
	if a := testing.AllocsPerRun(1000, func() {
		v++
		c.Get(1, v, v+1)
		c.Put(1, v, v+1, 3)
		c.Get(1, v, v+1)
		c.Peek(1, v, v+1)
	}); a != 0 {
		t.Fatalf("Get+Put+Get+Peek allocates %.1f times", a)
	}

	w := Wrap(fakeOracle{}, c, 1, Options{})
	pairs := make([][2]graph.Vertex, 2000)
	r := rand.New(rand.NewSource(1))
	for i := range pairs {
		pairs[i] = uniformPair(r)
	}
	w.QueryBatch(pairs, 1) // grows the pooled miss scratch
	if a := testing.AllocsPerRun(50, func() {
		w.gen++ // a generation nobody has asked about: every pair misses
		w.QueryBatch(pairs, 1)
	}); a > 1 {
		t.Fatalf("all-miss QueryBatch allocates %.1f times, want the result slice only", a)
	}

	st := reflect.TypeOf(slot{})
	for i := 0; i < st.NumField(); i++ {
		if k := st.Field(i).Type.Kind(); k != reflect.Int32 && k != reflect.Uint32 {
			t.Fatalf("slot.%s is a %s: the table must hold no pointer", st.Field(i).Name, k)
		}
	}
	if unsafe.Sizeof(set{}) != 64 || unsafe.Sizeof(shard{}) != 64 {
		t.Fatalf("set is %d bytes, shard %d; want one cache line each", unsafe.Sizeof(set{}), unsafe.Sizeof(shard{}))
	}
	bytes := len(c.sets)*int(unsafe.Sizeof(set{})) + len(c.shards)*int(unsafe.Sizeof(shard{}))
	if c.Capacity() != binaryEntries || bytes > 3<<19 {
		t.Fatalf("table for %d entries holds %d in %d bytes, want <= 1.5 MB", binaryEntries, c.Capacity(), bytes)
	}
}
