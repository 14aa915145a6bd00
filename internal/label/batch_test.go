package label

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"parapll/internal/graph"
)

// batchTestIndex builds an index shaped like PLL output — a few hubs in
// nearly every label, the rest spread over the id space — with the cases
// the batch kernel must not trip on: empty labels, and distances so
// close to Inf that two of them overflow 32 bits.
func batchTestIndex(r *rand.Rand, n int) *Index {
	lists := make([][]Entry, n)
	for v := range lists {
		if v%17 == 3 {
			continue // empty label
		}
		for k := 8 + r.Intn(60); k > 0; k-- {
			h := r.Intn(n)
			if r.Intn(2) == 0 {
				h = r.Intn(12)
			}
			d := graph.Dist(r.Intn(5000))
			if r.Intn(9) == 0 {
				d = graph.Inf - 1 - graph.Dist(r.Intn(3)) // any two of these saturate
			}
			lists[v] = append(lists[v], Entry{Hub: graph.Vertex(h), D: d})
		}
	}
	return NewIndexFromLists(lists)
}

// tieredTestIndex builds an index with all three tiers at any n from a
// few hundred up: hubs 0..5 in four labels of five (head columns), hubs
// 6..75 in about one of seven (70 mid columns, so a bitmap row is two
// words and the second has spare bits), six hubs a label drawn from the
// rest of the id space (tail entries, but for the few that chance makes
// common enough for a column) — and batchTestIndex's hard cases, empty
// labels and distances that saturate.
func tieredTestIndex(r *rand.Rand, n int) *Index {
	return NewIndexFromLists(tieredLists(r, n, func() graph.Dist {
		if r.Intn(9) == 0 {
			return graph.Inf - 1 - graph.Dist(r.Intn(3))
		}
		return graph.Dist(r.Intn(5000))
	}))
}

// narrowTieredIndex is tieredTestIndex with every distance in [0, dmax]
// and dmax among them, so that dmax alone decides the distance width.
func narrowTieredIndex(r *rand.Rand, n int, dmax graph.Dist) *Index {
	lists := tieredLists(r, n, func() graph.Dist { return graph.Dist(r.Int63n(int64(dmax) + 1)) })
	lists[0][0].D = dmax
	return NewIndexFromLists(lists)
}

func tieredLists(r *rand.Rand, n int, dist func() graph.Dist) [][]Entry {
	lists := make([][]Entry, n)
	for v := range lists {
		if v%17 == 3 {
			continue
		}
		for h := 0; h < 76; h++ {
			if h < 6 && r.Intn(5) > 0 || h >= 6 && r.Intn(7) == 0 {
				lists[v] = append(lists[v], Entry{Hub: graph.Vertex(h), D: dist()})
			}
		}
		for k := 0; k < 6; k++ {
			lists[v] = append(lists[v], Entry{Hub: graph.Vertex(76 + r.Intn(n-76)), D: dist()})
		}
	}
	return lists
}

// openCopy round-trips x through a PIDM file and Open, so the same
// labels are served from a file mapping.
func openCopy(t *testing.T, x *Index) *Index {
	t.Helper()
	y, err := Open(writeTemp(t, pidmBytes(t, x)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { y.Close() })
	return y
}

// drainScratch empties x's scratch pool, failing if any pooled hub array
// is not all-Inf — the at-rest invariant every QueryBatch must restore.
// (Under -race sync.Pool drops some Puts; whatever is there is checked.)
func drainScratch(t *testing.T, x *Index) {
	t.Helper()
	for {
		sc, _ := x.scratch.Get().(*batchScratch)
		if sc == nil {
			return
		}
		for h, d := range sc.hub {
			if d != graph.Inf {
				t.Fatalf("pooled scratch has hub[%d] = %d at rest, want Inf", h, d)
			}
		}
	}
}

// TestQueryBatchMatchesQuery is the batch kernel's differential test
// against the lone-pair kernels on the same index, heap-built, mapped
// and flat (so that the scatter carries whole labels): every batch
// shape, size and thread count must answer each pair exactly as Query
// does, at the caller's position, and leave the scratch at rest.
func TestQueryBatchMatchesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const n = 400
	built := tieredTestIndex(r, n)
	vertex := func() graph.Vertex { return graph.Vertex(r.Intn(n)) }
	shapes := map[string]func(i int) [2]graph.Vertex{
		"uniform":   func(int) [2]graph.Vertex { return [2]graph.Vertex{vertex(), vertex()} },
		"32sources": func(int) [2]graph.Vertex { return [2]graph.Vertex{graph.Vertex(r.Intn(32) * 7), vertex()} },
		"onesource": func(int) [2]graph.Vertex { return [2]graph.Vertex{5, vertex()} },
		"duplicate": func(i int) [2]graph.Vertex { return [2]graph.Vertex{graph.Vertex(i % 3), graph.Vertex(100 + i%2)} },
		"self":      func(i int) [2]graph.Vertex { v := graph.Vertex(i % n); return [2]graph.Vertex{v, v} },
		"empty":     func(i int) [2]graph.Vertex { return [2]graph.Vertex{3, graph.Vertex(i % n)} }, // L(3) is empty
		"descending": func(i int) [2]graph.Vertex {
			return [2]graph.Vertex{graph.Vertex(n - 1 - i%n), vertex()} // the sort reverses it
		},
	}
	saturated := 0
	for _, backing := range []struct {
		name string
		x    *Index
	}{{"heap", built}, {"mmap", openCopy(t, built)}, {"flat", built.Flat()}} {
		for shape, pair := range shapes {
			// Below one chunk, at the chunk-alignment edges, and many chunks.
			for _, size := range []int{1, 4, 15, 16, 17, 100, 2000, 5003} {
				pairs := make([][2]graph.Vertex, size)
				want := make([]graph.Dist, size)
				for i := range pairs {
					pairs[i] = pair(i)
					want[i] = backing.x.Query(pairs[i][0], pairs[i][1])
					if want[i] == graph.Inf && pairs[i][0] != 3 {
						saturated++
					}
				}
				for _, threads := range []int{1, 2, 8} {
					got := backing.x.QueryBatch(pairs, threads)
					if len(got) != size {
						t.Fatalf("%s/%s size %d threads %d: %d results", backing.name, shape, size, threads, len(got))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%s size %d threads %d: pair %d %v = %d, Query says %d",
								backing.name, shape, size, threads, i, pairs[i], got[i], want[i])
						}
					}
				}
			}
		}
		drainScratch(t, backing.x)
	}
	if saturated == 0 {
		t.Fatal("no pair answered Inf through a non-empty label: the saturating sums went untested")
	}
}

// TestScanRestoresScratch: after scan the dense array is all-Inf again,
// whatever the grouping — checked on an array the test owns, so no pool
// stands between the kernel and the check.
func TestScanRestoresScratch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n = 400
	x := tieredTestIndex(r, n)
	hub := new(batchScratch).hubArray(n)
	for trial := 0; trial < 20; trial++ {
		if trial == 10 {
			x = x.Flat() // every entry goes through the array
		}
		keys := make([]uint64, 1+r.Intn(300))
		pairs := make([][2]graph.Vertex, len(keys))
		for i := range keys {
			pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(1 + r.Intn(n))), graph.Vertex(r.Intn(n))}
			keys[i] = uint64(pairs[i][0])<<32 | uint64(i)
		}
		x.scan(pairs, keys, hub) // unsorted keys: grouping is an optimisation, not a precondition
		for i, k := range keys {
			if int(k>>32) != i || graph.Dist(k) != x.Query(pairs[i][0], pairs[i][1]) {
				t.Fatalf("trial %d: key %d came back as (%d, %d), want (%d, %d)",
					trial, i, k>>32, graph.Dist(k), i, x.Query(pairs[i][0], pairs[i][1]))
			}
		}
		for h, d := range hub {
			if d != graph.Inf {
				t.Fatalf("trial %d: hub[%d] = %d after scan, want Inf", trial, h, d)
			}
		}
	}
}

// TestQueryBatchConcurrent hammers one Index — one scratch pool — with
// concurrent batches, inline and fanned out. Meaningful mostly under
// -race; scripts/check.sh runs it with -count=20.
func TestQueryBatchConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const n = 400
	x := openCopy(t, tieredTestIndex(r, n))
	pairs := make([][2]graph.Vertex, 1200)
	want := make([]graph.Dist, len(pairs))
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(40)), graph.Vertex(r.Intn(n))}
		want[i] = x.Query(pairs[i][0], pairs[i][1])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				lo := (g*131 + round*17) % 600
				hi := lo + 4
				if round%2 == 0 {
					hi = lo + 600 // several chunks on several workers
				}
				got := x.QueryBatch(pairs[lo:hi], 1+g%3)
				for i, d := range got {
					if d != want[lo+i] {
						t.Errorf("goroutine %d round %d: pair %d = %d, want %d", g, round, lo+i, d, want[lo+i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	drainScratch(t, x)
}

// TestQueryBatchOutOfRangeRecoverable: an out-of-range pair in a batch
// wide enough to fan out panics on the calling goroutine, where a
// recover can see it, with Query's message.
func TestQueryBatchOutOfRangeRecoverable(t *testing.T) {
	x := batchTestIndex(rand.New(rand.NewSource(31)), 50)
	pairs := make([][2]graph.Vertex, 400)
	for _, bad := range [][2]graph.Vertex{{50, 0}, {0, 50}, {-1, 2}, {50, 50}} {
		pairs[333] = bad
		mustPanicContaining(t, "out of range", func() { x.QueryBatch(pairs, 2) })
		mustPanicContaining(t, "out of range", func() { x.QueryBatch(pairs[330:336], 2) })
	}
	drainScratch(t, x)
}

// damagedPIDM returns the PIDM bytes of x with the first hub of vertex
// v's tail replaced by bad, and every checksum recomputed to match: the
// file a bit flip before the CRCs were taken, or a foreign writer, leaves
// behind. Nothing in the container is wrong; one hub id is not a vertex.
func damagedPIDM(t *testing.T, x *Index, v graph.Vertex, bad uint32) []byte {
	t.Helper()
	data := pidmBytes(t, x)
	h, err := parsePIDM(data)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[h.lo[secHubs]+uint64(x.off[v])*4:], bad)
	resealPIDM(t, data)
	return data
}

// TestQueryBatchDamagedHub: a hub id >= n gets past Open (which does not
// read the sections) and even Verify (the checksums agree). The merge
// treats it as a number; the batch kernel indexes its dense array with
// it and must fail loudly, recoverably, and without poisoning the pool.
func TestQueryBatchDamagedHub(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	const n, victim = 400, 40
	good := tieredTestIndex(r, n) // at this n some hubs stay tail hubs
	data := damagedPIDM(t, good, victim, n+7)

	if _, err := readPIDMStream(strings.NewReader(string(data))); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("stream reader accepted a hub outside [0,n): err = %v", err)
	}
	x, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer x.Close()
	if err := x.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	x.Query(victim, 1) // the merge does not care

	pairs := make([][2]graph.Vertex, 600)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(i % n), graph.Vertex((i*7 + 1) % n)}
	}
	for _, threads := range []int{1, 2} {
		func() {
			defer func() {
				p := recover()
				if err, ok := p.(error); !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Fatalf("threads=%d: recovered %v, want an index-out-of-range runtime error", threads, p)
				}
			}()
			x.QueryBatch(pairs, threads)
		}()
	}
	// The scratch that was mid-scan is gone, not back in the pool dirty...
	drainScratch(t, x)
	// ...and pairs that stay clear of the damaged label are still served.
	var clear [][2]graph.Vertex
	for _, p := range pairs {
		if p[0] != victim && p[1] != victim {
			clear = append(clear, p)
		}
	}
	for i, d := range x.QueryBatch(clear, 2) {
		if want := good.Query(clear[i][0], clear[i][1]); d != want {
			t.Fatalf("after the panic: pair %v = %d, want %d", clear[i], d, want)
		}
	}
}

// TestFinalizeRejectsForeignHub: the Index invariant — hub < n, distance
// below Inf, which in a head slot would read as "no entry" — is checked
// where an index is built.
func TestFinalizeRejectsForeignHub(t *testing.T) {
	for _, hub := range []graph.Vertex{2, -1} {
		mustPanicContaining(t, fmt.Sprintf("hub %d outside [0,2)", hub), func() {
			NewIndexFromLists([][]Entry{{{Hub: 0, D: 1}}, {{Hub: hub, D: 1}}})
		})
	}
	mustPanicContaining(t, "infinite distance to hub 1", func() {
		NewIndexFromLists([][]Entry{{{Hub: 0, D: 1}}, {{Hub: 1, D: graph.Inf}}})
	})
}
