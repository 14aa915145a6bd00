package label

import (
	"bytes"
	"cmp"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"parapll/internal/graph"
)

func TestStoreBasic(t *testing.T) {
	s := NewStore(3)
	if s.NumVertices() != 3 || s.TotalEntries() != 0 {
		t.Fatal("empty store wrong")
	}
	s.Append(1, 0, 5)
	s.Append(1, 2, 7)
	if s.Len(1) != 2 || s.Len(0) != 0 {
		t.Fatalf("Len = %d,%d", s.Len(1), s.Len(0))
	}
	snap := s.Snapshot(1).AppendTo(nil)
	want := []Entry{{Hub: 0, D: 5}, {Hub: 2, D: 7}}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %v, want %v", snap, want)
	}
	if s.TotalEntries() != 2 {
		t.Fatalf("total = %d, want 2", s.TotalEntries())
	}
}

func TestStoreSnapshotImmutable(t *testing.T) {
	s := NewStore(1)
	s.Append(0, 1, 10)
	snap1 := s.Snapshot(0)
	for i := 0; i < 100; i++ {
		s.Append(0, graph.Vertex(i+2), graph.Dist(i))
	}
	if got := snap1.AppendTo(nil); len(got) != 1 || got[0] != (Entry{Hub: 1, D: 10}) {
		t.Fatalf("old snapshot mutated: %v", got)
	}
	if s.Len(0) != 101 {
		t.Fatalf("Len = %d, want 101", s.Len(0))
	}
}

func TestStoreBulkAppend(t *testing.T) {
	s := NewStore(2)
	s.Append(0, 5, 50)
	s.BulkAppend(0, []Entry{{Hub: 6, D: 60}, {Hub: 7, D: 70}})
	s.BulkAppend(0, nil) // no-op
	want := []Entry{{Hub: 5, D: 50}, {Hub: 6, D: 60}, {Hub: 7, D: 70}}
	if got := s.Snapshot(0).AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	if s.TotalEntries() != 3 {
		t.Fatalf("total = %d, want 3", s.TotalEntries())
	}
}

// TestStoreConcurrent hammers the store from many goroutines: writers
// append while readers take snapshots. Run with -race this validates the
// lock-free read design.
func TestStoreConcurrent(t *testing.T) {
	const n = 16
	const writers = 8
	const perWriter = 500
	s := NewStore(n)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				v := graph.Vertex(r.Intn(n))
				s.Append(v, graph.Vertex(w), graph.Dist(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for rdr := 0; rdr < 4; rdr++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for v := graph.Vertex(0); v < n; v++ {
					// Every visible entry must be fully written.
					for _, e := range s.Snapshot(v).AppendTo(nil) {
						if e.Hub < 0 || int(e.Hub) >= writers {
							panic("torn read: bad hub")
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if s.TotalEntries() != writers*perWriter {
		t.Fatalf("total = %d, want %d", s.TotalEntries(), writers*perWriter)
	}
	sum := 0
	for v := graph.Vertex(0); v < n; v++ {
		sum += s.Len(v)
	}
	if sum != writers*perWriter {
		t.Fatalf("per-vertex lengths sum to %d, want %d", sum, writers*perWriter)
	}
}

// TestStoreReaderHammer is the published-length contract under -race:
// while one writer per vertex grows its list across seven segment
// boundaries, the last into a level of the store (single appends, and
// bulk appends of mixed sizes, some of several segments, so boundaries
// land at varied offsets inside them), readers must see lengths that
// never shrink and, below any length they were shown, exactly the
// entries written, segment k holding the next 4·2^k of them — never a
// slot not yet filled, never one of a segment not yet linked. Many short
// lists rather than a few long ones: the orderings at stake are each
// segment's link and its level's, and a reader has to be caught between
// its loads to tell (scripts/check.sh repeats this 20 times).
func TestStoreReaderHammer(t *testing.T) {
	const vertices, perVertex, readers = 192, 520, 3
	entry := func(v graph.Vertex, i int) Entry {
		return Entry{Hub: graph.Vertex(i), D: graph.Dist(int(v)*perVertex + i)}
	}
	s := NewStore(vertices)
	var writers, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for rdr := 0; rdr < readers; rdr++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var last [vertices]int
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one more full pass over the final state
				default:
				}
				for v := graph.Vertex(0); v < vertices; v++ {
					snap := s.Snapshot(v)
					if snap.Len() < last[v] {
						t.Errorf("L(%d) shrank from %d to %d", v, last[v], snap.Len())
						return
					}
					last[v] = snap.Len()
					i := 0
					for k, seg := 0, snap.Seg(0); len(seg) > 0; k, seg = k+1, snap.Seg(k+1) {
						if want := min(4<<k, snap.Len()-i); len(seg) != want {
							t.Errorf("L(%d)'s segment %d holds %d entries at length %d, want %d", v, k, len(seg), snap.Len(), want)
							return
						}
						for _, e := range seg {
							if e != entry(v, i) {
								t.Errorf("L(%d)[%d] = %v at length %d, want %v", v, i, e, snap.Len(), entry(v, i))
								return
							}
							i++
						}
					}
					if i != snap.Len() {
						t.Errorf("L(%d)'s segments hold %d entries at length %d", v, i, snap.Len())
						return
					}
				}
			}
			for v, n := range last {
				if n != perVertex {
					t.Errorf("final pass saw %d entries in L(%d), want %d", n, v, perVertex)
				}
			}
		}()
	}
	for v := graph.Vertex(0); v < vertices; v++ {
		writers.Add(1)
		go func(v graph.Vertex) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(v)))
			for i := 0; i < perVertex; {
				k := r.Intn(9) // 0: a single Append
				if r.Intn(16) == 0 {
					k = 20 + r.Intn(60) // up to three boundaries at once
				}
				if k = min(k, perVertex-i); k == 0 {
					e := entry(v, i)
					s.Append(v, e.Hub, e.D)
					i++
					continue
				}
				bulk := make([]Entry, k)
				for j := range bulk {
					bulk[j] = entry(v, i+j)
				}
				s.BulkAppend(v, bulk)
				i += k
			}
		}(v)
	}
	writers.Wait()
	close(stop)
	readerWG.Wait()
	if s.TotalEntries() != vertices*perVertex {
		t.Fatalf("total = %d, want %d", s.TotalEntries(), vertices*perVertex)
	}
}

// TestStoreBulkAppendSpansSegments: one BulkAppend that crosses several
// segment boundaries, the inline segments' last included, lands each
// entry at its slot, and the list reads back whole, segment by segment.
func TestStoreBulkAppendSpansSegments(t *testing.T) {
	s := NewStore(2)
	var want []Entry
	for i, k := range []int{3, 1, 300, 2, 700} { // boundaries at 4, 12, 28, 60, 124, 252, 508
		bulk := make([]Entry, k)
		for j := range bulk {
			bulk[j] = Entry{Hub: graph.Vertex(len(want) + j), D: graph.Dist(i)}
		}
		s.BulkAppend(1, bulk)
		want = append(want, bulk...)
		if got := s.Snapshot(1).AppendTo(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d bulks of %d: L(1) reads %d entries, want %d", i+1, k, len(got), len(want))
		}
	}
	snap := s.Snapshot(1)
	segs := 0
	for k, seg := 0, snap.Seg(0); len(seg) > 0; k, seg = k+1, snap.Seg(k+1) {
		if want := min(4<<k, snap.Len()-(4<<k-4)); len(seg) != want {
			t.Fatalf("segment %d holds %d entries, want %d", k, len(seg), want)
		}
		segs++
	}
	if segs != 8 || s.Len(0) != 0 {
		t.Fatalf("1006 entries read as %d segments (want 8); L(0) holds %d", segs, s.Len(0))
	}
}

// TestStoreWideBoundary: at each side of a hub-width step (n = 2 to 5,
// 65 536, 65 537), an entry at the largest distance a word holds, at the
// first it does not (2^(32-hb)-1, the all-ones distance a placeholder
// reserves), at 2^(32-hb) and at Inf-1, with the largest hub, between two
// words, reads back exactly through Snapshot, Label and List(), counts
// in Len, TotalEntries and Wide, and covers exactly its distance on
// either side of the prune test (Covers, and Set's read of the hub's
// list).
func TestStoreWideBoundary(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 65536, 65537} {
		top := graph.Dist(1)<<(32-bits.Len(uint(n-1))) - 1 // the first distance a word cannot hold: its all-ones one is the placeholder's
		for _, d := range []graph.Dist{top - 1, top, top + 1, graph.Inf - 1} {
			s := NewStore(n)
			u, v, h := graph.Vertex(0), graph.Vertex(n-1), graph.Vertex(n-1)
			want := []Entry{{Hub: 0, D: 1}, {Hub: h, D: d}, {Hub: 0, D: 2}}
			s.BulkAppend(v, want[:2])
			s.Append(v, want[2].Hub, want[2].D)
			s.Append(u, h, 0)
			for name, got := range map[string][]Entry{
				"Snapshot": s.Snapshot(v).AppendTo(nil),
				"Label":    s.Label(v).Rest.AppendTo(nil),
				"List()":   s.List()(int(v)),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d d=%d: %s reads %v, want %v", n, d, name, got, want)
				}
			}
			wide := int64(0)
			if d >= top {
				wide = 1
			}
			if s.Len(v) != 3 || s.TotalEntries() != 4 || s.Wide() != wide {
				t.Fatalf("n=%d d=%d: Len %d, TotalEntries %d, Wide %d; want 3, 4, %d", n, d, s.Len(v), s.TotalEntries(), s.Wide(), wide)
			}
			p := NewProbe(n)
			for _, c := range []struct {
				side string
				hub  Label
				w    graph.Vertex
				rest List
			}{
				{"v's", s.Label(u), v, s.Snapshot(v)},
				{"the hub's", s.Label(v), u, s.Snapshot(u)},
			} {
				p.Set(c.hub)
				if p.Covers(c.w, c.rest, d-1) || !p.Covers(c.w, c.rest, d) || !p.Covers(c.w, c.rest, graph.Inf) {
					t.Fatalf("n=%d d=%d on %s side: Covers at d-1, d, Inf = %v, %v, %v; want false, true, true", n, d, c.side,
						p.Covers(c.w, c.rest, d-1), p.Covers(c.w, c.rest, d), p.Covers(c.w, c.rest, graph.Inf))
				}
			}
		}
	}
}

// TestStoreWideHammer is the wide table's publication contract under
// -race: writers append to the same vertices, each (vertex, hub) once,
// at a distance a word holds or at one it does not, a third of them near
// Inf, while readers take snapshots and test them. Half the entries a
// word holds are at the largest distance it holds, one below the
// placeholder's; and each pass reads the last pass's snapshots again,
// after their wide tables grew. Every entry a
// snapshot shows must be one a writer wrote, at its exact distance, in a
// list that only grows; and the prune test must find each such entry at
// its distance and not one below, on v's side (Covers over the snapshot)
// and on the hub's (Set's read of L(v)), where each placeholder must
// give way to its own wide entry. Each list's wide table spans six
// segments (scripts/check.sh repeats this 20 times).
func TestStoreWideHammer(t *testing.T) {
	const n, writers, readers = 256, 4, 3
	top := graph.Dist(1)<<(32-bits.Len(n-1)) - 1 // the first distance a word cannot hold
	dist := func(v, h graph.Vertex) graph.Dist {
		switch x := graph.Dist(v)*n + graph.Dist(h); x % 3 {
		case 0:
			if x%2 == 0 {
				return top - 1
			}
			return 1 + x
		case 1:
			return top + x
		default:
			return graph.Inf - 1 - x
		}
	}
	s := NewStore(n)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for rdr := 0; rdr < readers; rdr++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			r := rand.New(rand.NewSource(seed))
			p := NewProbe(n)
			var last [n]List
			var buf []Entry
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one more full pass over the final state
				default:
				}
				for v := graph.Vertex(0); v < n; v++ {
					snap := s.Snapshot(v)
					if snap.Len() < last[v].Len() {
						t.Errorf("L(%d) shrank from %d to %d", v, last[v].Len(), snap.Len())
						return
					}
					// The last pass's snapshot again, its wide table grown
					// since, then the new one.
					for _, l := range []List{last[v], snap} {
						buf = l.AppendTo(buf[:0])
						if len(buf) != l.Len() {
							t.Errorf("L(%d) reads %d entries at length %d", v, len(buf), l.Len())
							return
						}
						for _, e := range buf {
							if e.D != dist(v, e.Hub) {
								t.Errorf("L(%d) holds %v, but (%d, %d) was written at %d", v, e, v, e.Hub, dist(v, e.Hub))
								return
							}
						}
					}
					last[v] = snap
					if len(buf) == 0 {
						continue
					}
					e := buf[r.Intn(len(buf))]
					hub := [1]Entry{{Hub: e.Hub}}
					p.Set(Label{Rest: ListOf(hub[:])})
					if !p.Covers(v, snap, e.D) || p.Covers(v, snap, e.D-1) {
						t.Errorf("Covers over L(%d) at %d and one below: %v, %v; it holds %v", v, e.D, p.Covers(v, snap, e.D), p.Covers(v, snap, e.D-1), e)
						return
					}
					p.Set(s.Label(v))
					if !p.Covers(0, ListOf(hub[:]), e.D) || p.Covers(0, ListOf(hub[:]), e.D-1) {
						t.Errorf("Set of L(%d), which holds %v: Covers at %d and one below: %v, %v", v, e, e.D, p.Covers(0, ListOf(hub[:]), e.D), p.Covers(0, ListOf(hub[:]), e.D-1))
						return
					}
				}
			}
			for v, got := range last {
				if got.Len() != n {
					t.Errorf("final pass saw %d entries in L(%d), want %d", got.Len(), v, n)
				}
			}
		}(int64(rdr))
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for _, v := range r.Perm(n) {
				var bulk []Entry
				for h := w; h < n; h += writers {
					bulk = append(bulk, Entry{Hub: graph.Vertex(h), D: dist(graph.Vertex(v), graph.Vertex(h))})
				}
				for len(bulk) > 0 {
					k := min(len(bulk), r.Intn(4))
					if k == 0 {
						s.Append(graph.Vertex(v), bulk[0].Hub, bulk[0].D)
						k = 1
					} else {
						s.BulkAppend(graph.Vertex(v), bulk[:k])
					}
					bulk = bulk[k:]
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if s.TotalEntries() != n*n || s.Wide() != n*n-(n*n+2)/3 {
		t.Fatalf("TotalEntries %d, Wide %d; want %d, %d", s.TotalEntries(), s.Wide(), n*n, n*n-(n*n+2)/3)
	}
	for v := graph.Vertex(0); v < n; v++ { // each list holds every hub once
		got := s.Snapshot(v).AppendTo(nil)
		slices.SortFunc(got, func(a, b Entry) int { return cmp.Compare(a.Hub, b.Hub) })
		for h, e := range got {
			if want := (Entry{Hub: graph.Vertex(h), D: dist(v, graph.Vertex(h))}); e != want {
				t.Fatalf("L(%d) sorted by hub holds %v at %d, want %v", v, e, h, want)
			}
		}
	}
}

// TestStoreAllocatesEachSlotOnce: a list grown by single appends
// allocates each of its slots once, as the segment holding it is linked
// — its final capacity times 4 bytes, a word a slot — plus the levels of
// the store that hold segment pointers past its record, nothing more: no
// slot is copied into a larger array, and none is left behind. The heap's
// counters are process-wide, so the fewest bytes of five fresh stores
// count: another goroutine's allocations can only add.
func TestStoreAllocatesEachSlotOnce(t *testing.T) {
	const appends = 1000
	got := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		s := NewStore(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < appends; i++ {
			s.Append(0, 0, graph.Dist(i)) // a word: hub 0 is the one a store of one vertex holds
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	slots, levels := 0, 0
	for k := 0; 4<<k-4 < appends; k++ {
		slots += 4 << k
		if k >= inline {
			levels++
		}
	}
	const level = 8 + 24 // one pointer a vertex and the slice header
	bound := uint64(4*slots + levels*level)
	t.Logf("%d appends: %d slots, %d levels; %d bytes allocated, bound %d", appends, slots, levels, got, bound)
	if got > bound {
		t.Fatalf("%d appends allocated %d bytes, above %d slots of 4 bytes and %d levels", appends, got, slots, levels)
	}
}

// TestStoreHeadHammer is the build-time head's contract under -race:
// writers claim roots in order, open their columns (BeginRoot) and lower
// each cell in steps, then append a larger distance once more, while
// readers copy hub rows (Probe.Set) and run the prune test against other
// vertices' rows (Probe.Covers). The first three blocks' distances fit a
// cell; the fourth block's straddle maxCell, so its hubs' cells and list
// entries race together, and those roots write an eighth of the
// vertices, so the head refuses a fifth and the last roots' entries go
// to the lists. Every value a reader's merged row shows must be a
// distance a writer stored for that hub — never a torn value — no larger
// than what that reader saw there before, and no larger than the
// smallest distance written to the cell or the list before Set began.
// At the end every written (vertex, hub) holds its smallest distance
// (scripts/check.sh repeats this 20 times).
func TestStoreHeadHammer(t *testing.T) {
	const n, writers, readers, steps, step = 5 * headBlock, 4, 3, 3, 40
	base := func(v, c int) graph.Dist {
		d := graph.Dist(1 + (v*131+c*17)%128) // at most 128 + steps*step: a cell
		if c/headBlock == 3 {
			d += 127 // 128 to 255: the first values land in the list, the last mostly in the cell
		}
		return d
	}
	writes := func(v, c int) bool { // which vertices the root at position c labels
		switch c / headBlock {
		case 3:
			return v%8 == 0
		case 4:
			return v%16 == 0
		}
		return true
	}
	r := rand.New(rand.NewSource(29))
	ord := make([]graph.Vertex, n)
	for i, v := range r.Perm(n) {
		ord[i] = graph.Vertex(v)
	}
	s := NewStore(n)
	s.UseHead(ord)
	// floor[v*n+c]: the smallest distance of the root at c that an Append
	// to L(v) has returned from, graph.Inf before the first.
	floor := make([]atomic.Uint32, n*n)
	for i := range floor {
		floor[i].Store(graph.Inf)
	}

	var next atomic.Int64
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for c := int(next.Add(1) - 1); c < n; c = int(next.Add(1) - 1) {
				s.BeginRoot(c)
				for k := steps; k >= -1; k-- {
					extra := k * step
					if k < 0 {
						extra = step // a late, larger distance: it must not raise a cell
					}
					for v := 0; v < n; v++ {
						if writes(v, c) {
							d := base(v, c) + graph.Dist(extra)
							s.Append(graph.Vertex(v), ord[c], d)
							if f := &floor[v*n+c]; d < f.Load() {
								f.Store(d)
							}
						}
					}
				}
			}
		}()
	}
	for rdr := 0; rdr < readers; rdr++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			r := rand.New(rand.NewSource(seed))
			p := NewProbe(n)
			last := make([]graph.Dist, n*n) // last[v*n+c]: the smallest distance seen in row (v, c)
			for i := range last {
				last[i] = graph.Inf
			}
			before := make([]graph.Dist, n)
			for done := false; !done; {
				select {
				case <-stop:
					done = true
				default:
				}
				v := r.Intn(n)
				for c := range before {
					before[c] = floor[v*n+c].Load()
				}
				p.Set(s.Label(graph.Vertex(v)))
				for c, want := range before {
					if got := p.tmp[ord[c]]; got > want {
						t.Errorf("L(%d)'s hub at %d is scattered at %d, above the %d written before Set", v, c, got, want)
						return
					}
					if c < len(p.row) && p.row[c] > want {
						t.Errorf("L(%d)'s row holds %d at column %d, above the %d written before Set", v, p.row[c], c, want)
						return
					}
				}
				for c, d := range p.row {
					was := &last[v*n+c]
					switch {
					case d == graph.Inf && *was == graph.Inf:
					case d == graph.Inf || d > *was:
						t.Errorf("row (%d, %d) rose from %d to %d", v, c, *was, d)
						return
					case d < base(v, c) || (d-base(v, c))%step != 0 || d > base(v, c)+steps*step || !writes(v, c):
						t.Errorf("row (%d, %d) holds %d, which no writer stored", v, c, d)
						return
					}
					*was = d
				}
				u := graph.Vertex(r.Intn(n))
				d := graph.Dist(r.Intn(512))
				if r.Intn(4) == 0 {
					d += maxLaneD // the scalar path
				}
				p.Covers(u, s.Snapshot(u), d)
			}
		}(int64(rdr))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	k, fill := s.Head()
	if k != 4*headBlock {
		t.Logf("the head opened %d columns (%d when no writer lags a block behind)", k, 4*headBlock)
	}
	overflow := 0 // list entries of head hubs
	for v := 0; v < n; v++ {
		for _, e := range s.Snapshot(graph.Vertex(v)).AppendTo(nil) {
			if int(s.head.Load().rank[e.Hub]) < k {
				overflow++
			}
		}
	}
	if fill == 0 || k == 4*headBlock && overflow == 0 {
		t.Fatalf("head of %d columns at fill %.2f, %d list entries of head hubs: the writers no longer race cells against lists", k, fill, overflow)
	}
	var total int64
	for v := 0; v < n; v++ {
		held := map[graph.Vertex]graph.Dist{}
		for _, e := range s.Entries(graph.Vertex(v), nil) {
			if d, ok := held[e.Hub]; !ok || e.D < d {
				held[e.Hub] = e.D
			}
		}
		for c := 0; c < n; c++ {
			if d, ok := held[ord[c]]; writes(v, c) != ok || ok && d != base(v, c) {
				t.Fatalf("L(%d) holds (%d, %d, %v) for the root at %d, want its smallest distance %d", v, ord[c], d, ok, c, base(v, c))
			}
		}
		total += int64(s.Len(graph.Vertex(v)))
	}
	if total != s.TotalEntries() {
		t.Fatalf("lengths sum to %d, TotalEntries is %d", total, s.TotalEntries())
	}
}

func TestIndexSortsAndDedupes(t *testing.T) {
	s := NewStore(2)
	// Out-of-order appends with a duplicate hub (keep min dist).
	s.Append(0, 1, 90)
	s.Append(0, 0, 30)
	s.Append(0, 1, 50)
	s.Append(0, 0, 35)
	x := NewIndex(s)
	hubs, dists := x.Label(0, nil, nil)
	if !reflect.DeepEqual(hubs, []graph.Vertex{0, 1}) {
		t.Fatalf("hubs = %v, want [0 1]", hubs)
	}
	if !reflect.DeepEqual(dists, []graph.Dist{30, 50}) {
		t.Fatalf("dists = %v, want [30 50]", dists)
	}
	if x.LabelSize(0) != 2 || x.LabelSize(1) != 0 {
		t.Fatal("label sizes wrong")
	}
	if x.NumEntries() != 2 {
		t.Fatalf("NumEntries = %d", x.NumEntries())
	}
	if x.AvgLabelSize() != 1.0 {
		t.Fatalf("AvgLabelSize = %v, want 1", x.AvgLabelSize())
	}
}

// TestSortDedupeMatchesReference holds the packed-key sort to a plain
// one over random lists: entries sorted by hub then distance, the first
// of each hub kept. The lists take duplicate hubs, hubs 0 and n-1,
// distance graph.Inf-1, and lengths 0 and 1.
func TestSortDedupeMatchesReference(t *testing.T) {
	const n = 50
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		list := make([]Entry, r.Intn(3)*r.Intn(40))
		for i := range list {
			list[i] = Entry{Hub: graph.Vertex(r.Intn(n)), D: graph.Dist(r.Intn(100))}
			switch r.Intn(8) {
			case 0:
				list[i].Hub = 0
			case 1:
				list[i].Hub = n - 1
			case 2:
				list[i].D = graph.Inf - 1
			}
		}
		want := slices.Clone(list)
		slices.SortFunc(want, func(a, b Entry) int {
			if c := cmp.Compare(a.Hub, b.Hub); c != 0 {
				return c
			}
			return cmp.Compare(a.D, b.D)
		})
		want = slices.CompactFunc(want, func(a, b Entry) bool { return a.Hub == b.Hub })
		if got := SortDedupe(list); !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortDedupe(%v) = %v, want %v", trial, list, got, want)
		}
	}
}

func TestIndexQuery(t *testing.T) {
	s := NewStore(3)
	// L(0) = {(0,0),(2,8)}; L(1) = {(0,4),(2,3)}: meet at hub 0 -> 4, hub 2 -> 11.
	s.Append(0, 0, 0)
	s.Append(0, 2, 8)
	s.Append(1, 0, 4)
	s.Append(1, 2, 3)
	x := NewIndex(s)
	if d := x.Query(0, 1); d != 4 {
		t.Fatalf("Query = %d, want 4", d)
	}
	d, hub := x.QueryWithHub(0, 1)
	if d != 4 || hub != 0 {
		t.Fatalf("QueryWithHub = (%d,%d), want (4,0)", d, hub)
	}
	if d := x.Query(1, 1); d != 0 {
		t.Fatalf("self query = %d, want 0", d)
	}
	if d, h := x.QueryWithHub(2, 2); d != 0 || h != 2 {
		t.Fatalf("self QueryWithHub = (%d,%d)", d, h)
	}
	// Vertex 2 has no labels: disconnected.
	if d := x.Query(0, 2); d != graph.Inf {
		t.Fatalf("disconnected query = %d, want Inf", d)
	}
	if _, h := x.QueryWithHub(0, 2); h != -1 {
		t.Fatalf("disconnected hub = %d, want -1", h)
	}
}

func TestIndexQuerySymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := NewStore(20)
	for i := 0; i < 200; i++ {
		s.Append(graph.Vertex(r.Intn(20)), graph.Vertex(r.Intn(20)), graph.Dist(r.Intn(100)))
	}
	x := NewIndex(s)
	for i := 0; i < 100; i++ {
		a, b := graph.Vertex(r.Intn(20)), graph.Vertex(r.Intn(20))
		if x.Query(a, b) != x.Query(b, a) {
			t.Fatalf("Query(%d,%d) asymmetric", a, b)
		}
	}
}

func TestIndexEmpty(t *testing.T) {
	x := NewIndex(NewStore(0))
	if x.NumVertices() != 0 || x.NumEntries() != 0 || x.AvgLabelSize() != 0 {
		t.Fatal("empty index wrong")
	}
}

func TestLabelSizeHistogram(t *testing.T) {
	s := NewStore(3)
	s.Append(0, 1, 1)
	s.Append(0, 2, 2)
	s.Append(1, 1, 1)
	x := NewIndex(s)
	sizes, counts := x.LabelSizeHistogram()
	if !reflect.DeepEqual(sizes, []int{0, 1, 2}) || !reflect.DeepEqual(counts, []int{1, 1, 1}) {
		t.Fatalf("histogram = %v %v", sizes, counts)
	}
}

func TestIndexIORoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := NewStore(50)
	for i := 0; i < 500; i++ {
		s.Append(graph.Vertex(r.Intn(50)), graph.Vertex(r.Intn(50)), graph.Dist(r.Intn(1000)))
	}
	x := NewIndex(s)
	y, err := readPIDMStream(bytes.NewReader(pidmBytes(t, x)))
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(y) {
		t.Fatal("index IO round trip changed index")
	}
}

func TestIndexIOCorruption(t *testing.T) {
	s := NewStore(3)
	s.Append(0, 1, 2)
	b := pidmBytes(t, NewIndex(s))
	h, err := parsePIDM(b)
	if err != nil {
		t.Fatal(err)
	}
	b[h.lo[secOff]+8] ^= 0x55
	if _, err := readPIDMStream(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted index accepted")
	}
	if _, err := readPIDMStream(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := readPIDMStream(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func BenchmarkStoreAppend(b *testing.B) {
	s := NewStore(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(graph.Vertex(i%1024), graph.Vertex(i%512), graph.Dist(i))
	}
}

func BenchmarkIndexQuery(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	s := NewStore(1000)
	for v := 0; v < 1000; v++ {
		for j := 0; j < 64; j++ {
			s.Append(graph.Vertex(v), graph.Vertex(r.Intn(200)), graph.Dist(r.Intn(10000)))
		}
	}
	x := NewIndex(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Query(graph.Vertex(i%1000), graph.Vertex((i*7)%1000))
	}
}

func TestQueryBatch(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := NewStore(60)
	for i := 0; i < 600; i++ {
		s.Append(graph.Vertex(r.Intn(60)), graph.Vertex(r.Intn(60)), graph.Dist(r.Intn(500)))
	}
	x := NewIndex(s)
	pairs := make([][2]graph.Vertex, 500)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(60)), graph.Vertex(r.Intn(60))}
	}
	for _, threads := range []int{0, 1, 3, 16} {
		got := x.QueryBatch(pairs, threads)
		for i, p := range pairs {
			if got[i] != x.Query(p[0], p[1]) {
				t.Fatalf("threads=%d pair %d: batch %d != single %d", threads, i, got[i], x.Query(p[0], p[1]))
			}
		}
	}
	if out := x.QueryBatch(nil, 4); len(out) != 0 {
		t.Fatal("empty batch returned results")
	}
}

// TestAcquire: a reference Acquire took keeps a value open through the
// publisher's release after a swap, and the last release reports it;
// Acquire returns nil for nothing published, or for a value released
// while still published (its owner shut down). The concurrent path, a
// count that falls to zero between the load and the increment, is the
// server, compaction and delta-reader hammers'.
func TestAcquire(t *testing.T) {
	type counted struct {
		Refs
		name string
	}
	var p atomic.Pointer[counted]
	if Acquire(&p) != nil {
		t.Fatal("Acquire of a nil pointer returned a value")
	}
	a := &counted{name: "a"}
	p.Store(a)
	if got := Acquire(&p); got != a {
		t.Fatalf("Acquire = %v, want a", got)
	}
	b := &counted{name: "b"}
	p.Swap(b)
	if a.Release() { // the publisher's reference: the reader's is left
		t.Fatal("a released while a reader holds it")
	}
	if !a.Release() { // the reader's
		t.Fatal("the last release of a did not report it")
	}
	if got := Acquire(&p); got != b {
		t.Fatalf("Acquire after the swap = %v, want b", got)
	}
	b.Release()
	if !b.Release() { // the publisher shuts down and leaves b published
		t.Fatal("the last release of b did not report it")
	}
	if got := Acquire(&p); got != nil {
		t.Fatalf("Acquire of a value released for good = %v, want nil", got)
	}
}
