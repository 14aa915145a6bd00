package label

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"parapll/internal/graph"
)

// Index is the immutable, query-optimized form of a label set: a 2-hop
// cover answering the paper's QUERY(s,t,L) = min over common hubs u of
// σ(P(u,s)) + σ(P(u,t)). A label L(v) is stored in three parts, and
// which part holds an entry depends only on how many labels its hub is
// in; the rule of each tier is the byte-optimal one, needs no order and
// no tuning, and picks no hub at all where none is that common.
//
// The head is a dense n × K matrix of distances, one column per head hub:
// a hub that appears in more than half the labels (PLL's first roots
// reach almost every vertex) costs 4 bytes a vertex as a column and 8 an
// appearance as a (hub, distance) pair, at 4 bytes a distance, so exactly
// those hubs become columns. A vertex that lacks a head hub holds the
// all-ones value of the distance width in its slot, and the head's share
// of a query is one branch-free pass over two contiguous rows (rowMin).
//
// The middle tier is a bitmap: a hub in more than n/32 labels (and not
// in the head) becomes bit column c of an n × W matrix of 64-bit words,
// W = ceil(K2/64), and the distances of a vertex's set bits are packed
// behind it in column order. A column costs n/8 bytes of bitmap and
// saves the 4-byte hub id of every entry it takes, which is where n/32
// comes from. Its share of a query ANDs two bitmap rows and ranks each
// common bit in both by a popcount of the bits below it (midMin, mid.go).
//
// The tail is everything else, per vertex one flat, hub-sorted,
// deduplicated run of (hub, distance) pairs, and its share of a query is
// a merge-intersection of two sorted runs (merge.go). No tail entry
// names a head or mid hub.
//
// All three tiers store distances at one width, which finalize picks
// from the largest distance dmax any label holds: 1 byte if 2·dmax <
// 0xFF, else 2 if 2·dmax < 0xFFFF, else 4. The factor 2 is the whole
// correctness argument: the width's all-ones value marks an absent head
// slot, the sum over a hub both vertices hold is at most 2·dmax, below
// it, and a sum with an absent slot is at least it. So the kernels keep
// their branch-free 64-bit sums and only map a minimum at or above the
// all-ones value to graph.Inf at the end (clamp); at 4 bytes that value
// is graph.Inf and this is saturating addition. One width per index, not
// per tier or per vertex: a sum crosses two labels and needs one
// sentinel on both sides.
//
// Invariant: every hub id is a vertex of the index, 0 <= hub <
// NumVertices(), and every stored distance is at most what its width
// admits (maxDist), which is below graph.Inf. finalize
// (NewIndex, NewIndexFromLists) panics on a list that breaks it and the
// stream reader rejects such a file, each while making the passes over
// the entries it makes anyway. Open does not look at the entries — that
// is its point — so a damaged PIDM file can carry a foreign tail hub id
// past it: Query then merges it like any other number, and QueryBatch,
// whose dense scratch is sized by NumVertices(), panics on its
// bounds-checked index (and drops that scratch). The head has no
// per-entry hub id to damage: Open checks the K column ids, and a
// flipped head byte is a wrong distance, which Verify's checksum names.
// Nor has the middle tier: Open checks the K2 column ids and that the
// packed runs tile midDists, so every run is a slice inside its section;
// a flipped bitmap bit shifts the ranks behind it, which is a wrong
// distance or — a rank past the end of its run — the panic of a
// bounds-checked index, never a read outside the run.
//
// The arrays either live on the heap (built or stream-decoded indexes)
// or alias a read-only file mapping (Open); queries are identical
// either way.
//
// Memory model for mmap-backed indexes: the aliased slices point into
// non-heap memory, so holding one does NOT keep the mapping alive —
// only a reference to the Index (which owns mm) does. A precise GC may
// otherwise collect the Index after its last syntactic use, run the
// mapping finalizer and unmap mid-read. Every method that dereferences
// the arrays therefore ends with runtime.KeepAlive(x); code outside
// this package that retains the slices returned by Label must keep the
// Index reachable the same way for as long as it reads them.
type Index struct {
	off  []int64        // len n+1: tail run of v is [off[v], off[v+1])
	hubs []graph.Vertex // tail, flat, sorted by hub within each vertex run

	headHubs []graph.Vertex // the K head hubs, ascending

	midHubs []graph.Vertex // the K2 mid hubs, ascending
	midBits []uint64       // n × W row-major, W = ceil(K2/64): bit c of row v set iff midHubs[c] ∈ L(v)
	midOff  []int64        // len n+1, nil when K2 = 0: mid run of v is midDists[midOff[v]:midOff[v+1]]

	// The distances, in the one of the three whose width is w bytes.
	w   int
	a8  arrays[uint8]
	a16 arrays[uint16]
	a32 arrays[graph.Dist]

	total int64 // label entries: finite head slots + set mid bits + tail entries
	mids  int64 // of them mid entries: len(midDists)

	mm *mapping // non-nil when the index was read from a file (see Open)

	cols     []int32 // MergeRun's hub-to-column map (columns)
	colsOnce sync.Once

	// scratch pools *batchScratch for QueryBatch and its workers: a
	// sync.Pool, so it holds about one per concurrently running worker
	// and the collector takes back what a quiet period leaves idle.
	scratch sync.Pool
}

// distance is the set of types a stored distance has.
type distance interface{ ~uint8 | ~uint16 | ~uint32 }

// arrays holds an index's distances at width D.
type arrays[D distance] struct {
	head     []D // n × K row-major: head[v*K+c] = d(headHubs[c], v), or ^D(0)
	midDists []D // the distances of the set mid bits, row by row in column order
	dists    []D // tail, beside hubs
}

// maxDist is the largest distance an index of width D stores: no sum of
// two reaches the all-ones value — but at 4 bytes, where that is
// graph.Inf and such a sum is unreachable by definition, all below it.
func maxDist[D distance]() uint64 {
	if ones := uint64(^D(0)); ones < uint64(graph.Inf) {
		return (ones - 1) / 2
	}
	return uint64(graph.Inf) - 1
}

// clamp turns a kernel's 64-bit minimum into its answer: at or above the
// all-ones value of the width it met an absent slot, or nothing at all.
func clamp[D distance](best uint64) graph.Dist {
	if best >= uint64(^D(0)) {
		return graph.Inf
	}
	return graph.Dist(best)
}

// What Index.Format reports, and the one name fileio.SaveIndexAs and
// parapll-index -format accept.
const (
	// FormatMmap is the index file format, PIDM (see mmap.go).
	FormatMmap = "mmap"
	// FormatMemory marks an index built in process, never deserialized.
	FormatMemory = "memory"
)

// Format reports where this index came from: FormatMmap for one read
// from a file, FormatMemory for one built in process.
func (x *Index) Format() string {
	if x.mm != nil {
		return FormatMmap
	}
	return FormatMemory
}

// Mapped reports whether the index arrays alias a live file mapping
// (true zero-copy — only on unix; the non-unix Open fallback and the
// stream reader are heap-backed).
func (x *Index) Mapped() bool { return x.mm != nil && x.mm.mapped }

// Close releases the file mapping backing an Open'd index. The index
// must not be queried afterwards; callers that cannot prove quiescence
// (e.g. a server hot-swapping snapshots) should instead drop all
// references and let the mapping's finalizer unmap. Close on a
// heap-backed index is a no-op.
func (x *Index) Close() error {
	if x.mm == nil {
		return nil
	}
	mm := x.mm
	x.mm = nil
	runtime.SetFinalizer(mm, nil)
	return mm.close()
}

// NewIndex finalizes a Store into an Index: every label list is sorted by
// hub id, duplicate hubs are collapsed to their minimum distance, and the
// hubs common enough to pay for a column move to the head or the middle
// tier. Each label streams to finalize as the store's head cells then its
// list; finalize's tier rules are its own, whatever the store's head
// held. The store is read, not consumed; it must be quiescent (no appends
// racing the finalize).
func NewIndex(s *Store) *Index {
	var buf []Entry
	return finalize(s.NumVertices(), func(v int) []Entry {
		buf = s.entries(graph.Vertex(v), buf[:0])
		return buf
	}, allTiers)
}

// NewIndexFromLists finalizes per-vertex label lists (as built by the
// serial PLL, which needs no concurrent Store) into an Index, exactly as
// NewIndex does.
func NewIndexFromLists(lists [][]Entry) *Index {
	return NewIndexFunc(len(lists), func(v int) []Entry { return lists[v] })
}

// NewIndexFunc is NewIndexFromLists over lists made on demand: each of two
// passes calls list(v) for v in order, and list may reuse its storage.
func NewIndexFunc(n int, list func(v int) []Entry) *Index {
	return finalize(n, list, allTiers)
}

// Flat returns an index over the same labels with every entry in the
// tail and every distance at 4 bytes, so that Label returns the stored
// runs — x itself when it is such an index. It is for callers that merge
// a label of one index against a label of another (directed's L_out(s) ∩
// L_in(t)), which two sets of columns or two widths cannot serve, and it
// is the baseline the tiers are measured against.
func (x *Index) Flat() *Index { return x.relayout(tailOnly) }

// HeadOnly returns an index over the same labels with a head and no
// middle tier: the baseline the bitmap tier is measured against
// (BenchmarkQueryKernel's -nomid rows).
func (x *Index) HeadOnly() *Index { return x.relayout(headAndTail) }

// Wide returns an index over the same labels in all three tiers with
// 4-byte distances whatever they are: the baseline the narrow widths are
// measured against (BenchmarkQueryKernel's -wide rows).
func (x *Index) Wide() *Index { return x.relayout(allTiersWide) }

// relayout finalizes x's labels again under another choice of tiers.
func (x *Index) relayout(use tiers) *Index {
	if use == tailOnly && len(x.headHubs) == 0 && len(x.midHubs) == 0 && x.w == 4 {
		return x
	}
	var hubs []graph.Vertex
	var dists []graph.Dist
	var entries []Entry
	y := finalize(x.NumVertices(), func(v int) []Entry {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		entries = entries[:0]
		for i, h := range hubs {
			entries = append(entries, Entry{Hub: h, D: dists[i]})
		}
		return entries
	}, use)
	runtime.KeepAlive(x)
	return y
}

// tiers says which of the two column tiers finalize may fill, and
// whether it may narrow the distances. Every index a build or a reader
// produces has allTiers; the others exist for Flat, HeadOnly and Wide.
type tiers int

const (
	tailOnly tiers = iota // at 4 bytes: Label aliases the runs
	headAndTail
	allTiers
	allTiersWide // at 4 bytes
)

// finalize streams n label lists into the arrays in two passes. The
// first counts the labels each hub appears in (a duplicate within one
// list once) and takes the largest distance, which fixes the columns —
// every hub in more than n/2 labels goes to the head, every other hub in
// more than n/32 to the middle tier, as far as use allows — the exact
// size of every array and the width of a distance (see Index). The
// second is deal. A hub outside [0,n) or a distance of graph.Inf is a
// builder's bug and panics (the Index invariant). list(v) may reuse its
// result's storage between calls.
func finalize(n int, list func(v int) []Entry, use tiers) *Index {
	count := make([]int32, n) // labels holding the hub
	seen := make([]int32, n)  // seen[h] == v+1: h already counted for v
	var total int64
	var dmax graph.Dist
	for v := 0; v < n; v++ {
		mark := int32(v + 1)
		for _, e := range list(v) {
			if uint(e.Hub) >= uint(n) {
				panic(fmt.Sprintf("label: vertex %d has hub %d outside [0,%d)", v, e.Hub, n))
			}
			if e.D == graph.Inf {
				panic(fmt.Sprintf("label: vertex %d has an infinite distance to hub %d", v, e.Hub))
			}
			dmax = max(dmax, e.D)
			if seen[e.Hub] != mark {
				seen[e.Hub] = mark
				count[e.Hub]++
				total++
			}
		}
	}
	// slot[h] is where h's entries go: its head column c as c, its mid
	// column c as -2-c, -1 for the tail; it takes over seen.
	idx := &Index{off: make([]int64, n+1), total: total}
	slot, tail := seen, total
	for h := range slot {
		slot[h] = -1
		switch c := int64(count[h]); {
		case use >= headAndTail && 2*c > int64(n):
			slot[h] = int32(len(idx.headHubs))
			idx.headHubs = append(idx.headHubs, graph.Vertex(h))
			tail -= c
		case use >= allTiers && 32*c > int64(n):
			slot[h] = int32(-2 - len(idx.midHubs))
			idx.midHubs = append(idx.midHubs, graph.Vertex(h))
			tail -= c
			idx.mids += c
		}
	}
	idx.hubs = make([]graph.Vertex, tail)
	if w := midWords(len(idx.midHubs)); w > 0 {
		idx.midBits = make([]uint64, n*w)
		idx.midOff = make([]int64, n+1)
	}
	switch {
	case use == tailOnly || use == allTiersWide || uint64(dmax) > maxDist[uint16]():
		idx.w = 4
		deal(idx, &idx.a32, list, slot)
	case uint64(dmax) > maxDist[uint8]():
		idx.w = 2
		deal(idx, &idx.a16, list, slot)
	default:
		idx.w = 1
		deal(idx, &idx.a8, list, slot)
	}
	return idx
}

// deal is finalize's second pass, at the width its first one chose: it
// copies each list into one reused scratch buffer, sorts and
// deduplicates it there and deals its entries to the head row, the
// bitmap row and its packed run, or the tail run, so beside the source
// lists only the result is ever live.
func deal[D distance](idx *Index, a *arrays[D], list func(v int) []Entry, slot []int32) {
	n, k, w := idx.NumVertices(), len(idx.headHubs), midWords(len(idx.midHubs))
	a.head = make([]D, n*k)
	a.midDists = make([]D, idx.mids)
	a.dists = make([]D, len(idx.hubs))
	var scratch []Entry
	pos, mpos := 0, 0
	for v := 0; v < n; v++ {
		scratch = append(scratch[:0], list(v)...)
		row := a.head[v*k:][:k]
		for c := range row {
			row[c] = ^D(0)
		}
		words := idx.midBits[v*w:][:w]
		// Entries come in hub order and columns were numbered in hub
		// order, so a vertex's mid distances land in column order.
		for _, e := range sortDedupe(scratch) {
			switch c := slot[e.Hub]; {
			case c >= 0:
				row[c] = D(e.D)
			case c == -1:
				idx.hubs[pos], a.dists[pos] = e.Hub, D(e.D)
				pos++
			default:
				c = -2 - c
				words[c>>6] |= 1 << uint(c&63)
				a.midDists[mpos] = D(e.D)
				mpos++
			}
		}
		idx.off[v+1] = int64(pos)
		if w > 0 {
			idx.midOff[v+1] = int64(mpos)
		}
	}
}

// midWords returns W, the 64-bit words in one bitmap row of k2 columns.
func midWords(k2 int) int { return (k2 + 63) >> 6 }

// SortDedupe returns a copy of one label list sorted by hub with
// duplicate hubs collapsed to their minimum distance — the strictly
// hub-increasing form every merge kernel requires.
func SortDedupe(l []Entry) []Entry {
	list := make([]Entry, len(l))
	copy(list, l)
	return sortDedupe(list)
}

// sortDedupe is SortDedupe in place: it reorders list and returns the
// deduplicated prefix.
func sortDedupe(list []Entry) []Entry {
	slices.SortFunc(list, func(a, b Entry) int {
		if c := cmp.Compare(a.Hub, b.Hub); c != 0 {
			return c
		}
		return cmp.Compare(a.D, b.D)
	})
	out := list[:0]
	for _, e := range list {
		if len(out) > 0 && out[len(out)-1].Hub == e.Hub {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Equal reports whether two indexes hold identical labels — the same
// (hub, distance) pairs for every vertex — regardless of storage backing
// (heap or mmap), origin and where each keeps the split between the
// tiers. This is the invariant the round-trip tests assert.
func (x *Index) Equal(y *Index) bool {
	defer runtime.KeepAlive(x)
	defer runtime.KeepAlive(y)
	if x.NumVertices() != y.NumVertices() || x.total != y.total {
		return false
	}
	var xh, yh []graph.Vertex
	var xd, yd []graph.Dist
	for v := 0; v < x.NumVertices(); v++ {
		xh, xd = x.Label(graph.Vertex(v), xh, xd)
		yh, yd = y.Label(graph.Vertex(v), yh, yd)
		if !slices.Equal(xh, yh) || !slices.Equal(xd, yd) {
			return false
		}
	}
	return true
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return len(x.off) - 1 }

// NumEntries returns the total number of label entries, wherever they
// are stored: finite head slots, set mid bits and tail entries.
func (x *Index) NumEntries() int64 { return x.total }

// AvgLabelSize returns the mean entries per vertex — the paper's LN metric
// reported in Tables 3–5.
func (x *Index) AvgLabelSize() float64 {
	n := x.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(x.NumEntries()) / float64(n)
}

// Head returns the number of head columns K and the share of the n × K
// head slots that hold an entry (0 when K is 0).
func (x *Index) Head() (k int, density float64) {
	k = len(x.headHubs)
	if slots := x.NumVertices() * k; slots != 0 {
		density = float64(x.total-int64(len(x.hubs))-x.mids) / float64(slots)
	}
	return k, density
}

// Mid returns the number of bitmap columns K2 and the share of the
// n × K2 bits that are set (0 when K2 is 0).
func (x *Index) Mid() (k2 int, density float64) {
	k2 = len(x.midHubs)
	if k2 == 0 || x.NumVertices() == 0 {
		return k2, 0
	}
	return k2, float64(x.mids) / (float64(x.NumVertices()) * float64(k2))
}

// DistBytes returns the width of a stored distance: 1, 2 or 4 bytes,
// fixed by the largest distance in the labels (see Index).
func (x *Index) DistBytes() int { return x.w }

// MemoryBytes returns the in-memory footprint of the index's arrays
// (offsets, tail hubs and distances, head, bitmap and packed mid
// distances). The paper reports this linear-in-(n·LN) quantity peaking
// at 2.2 GB in its evaluation.
func (x *Index) MemoryBytes() int64 {
	slots := int64(x.NumVertices()) * int64(len(x.headHubs))
	return int64(len(x.off)+len(x.midOff)+len(x.midBits))*8 +
		int64(len(x.hubs)+len(x.headHubs)+len(x.midHubs))*4 +
		(slots+x.mids+int64(len(x.hubs)))*int64(x.w)
}

// LabelSize returns |L(v)|.
func (x *Index) LabelSize(v graph.Vertex) int {
	switch x.w {
	case 1:
		return labelSize(x, &x.a8, v)
	case 2:
		return labelSize(x, &x.a16, v)
	}
	return labelSize(x, &x.a32, v)
}

func labelSize[D distance](x *Index, a *arrays[D], v graph.Vertex) int {
	_, md := mid(x, a, v)
	size := int(x.off[v+1]-x.off[v]) + len(md)
	for _, d := range row(x, a, v) {
		if d != ^D(0) {
			size++
		}
	}
	runtime.KeepAlive(x)
	return size
}

// Label returns v's entries, hub-sorted. An index with every entry in
// the tail at 4 bytes (Flat) returns its stored run; otherwise the bitmap
// row's entries and the tail run are interleaved into hubs[:0] and
// dists[:0], which a caller walking many labels passes back in to reuse,
// and the head row's are merged in from the back. Either way the result
// is read-only, and for a possibly mmap-backed index the caller must keep
// x reachable (runtime.KeepAlive) for as long as it reads it — see the
// Index memory-model comment.
func (x *Index) Label(v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) ([]graph.Vertex, []graph.Dist) {
	switch {
	case x.w == 1:
		return label(x, &x.a8, v, hubs, dists)
	case x.w == 2:
		return label(x, &x.a16, v, hubs, dists)
	case len(x.headHubs) == 0 && len(x.midHubs) == 0:
		return tail(x, &x.a32, v)
	}
	return label(x, &x.a32, v, hubs, dists)
}

func label[D distance](x *Index, a *arrays[D], v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) ([]graph.Vertex, []graph.Dist) {
	th, td := tail(x, a, v)
	hubs, dists = hubs[:0], dists[:0]
	words, md := mid(x, a, v)
	j, rank := 0, 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			h := x.midHubs[w<<6+bits.TrailingZeros64(word)]
			for ; j < len(th) && th[j] < h; j++ {
				hubs, dists = append(hubs, th[j]), append(dists, graph.Dist(td[j]))
			}
			hubs, dists = append(hubs, h), append(dists, graph.Dist(md[rank]))
			rank++
		}
	}
	hubs = append(hubs, th[j:]...)
	for _, d := range td[j:] {
		dists = append(dists, graph.Dist(d))
	}

	hr := row(x, a, v)
	held := 0
	for _, d := range hr {
		if d != ^D(0) {
			held++
		}
	}
	i := len(hubs) - 1 // last entry not yet moved to its final place
	hubs, dists = append(hubs, make([]graph.Vertex, held)...), append(dists, make([]graph.Dist, held)...)
	// o is the slot to fill next; o - i head entries are still to place.
	for c, o := len(hr)-1, len(hubs)-1; o > i; c-- {
		if hr[c] == ^D(0) {
			continue
		}
		h := x.headHubs[c]
		for ; i >= 0 && hubs[i] > h; i, o = i-1, o-1 {
			hubs[o], dists[o] = hubs[i], dists[i]
		}
		hubs[o], dists[o] = h, graph.Dist(hr[c])
		o--
	}
	runtime.KeepAlive(x)
	return hubs, dists
}

// MergeRun is MergeRuns of a strictly hub-increasing run, each hub a
// vertex of the index, against L(v): each hub is looked up where finalize
// put it — head column, bitmap bit ranked by popcounts, tail entry by
// binary search — at a cost per hub of the run, whatever L(v)'s length.
func (x *Index) MergeRun(v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) (graph.Dist, graph.Vertex) {
	switch x.w {
	case 1:
		return mergeRun(x, &x.a8, v, hubs, dists)
	case 2:
		return mergeRun(x, &x.a16, v, hubs, dists)
	}
	return mergeRun(x, &x.a32, v, hubs, dists)
}

func mergeRun[D distance](x *Index, a *arrays[D], v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) (graph.Dist, graph.Vertex) {
	th, td := tail(x, a, v)
	words, md := mid(x, a, v)
	hr := row(x, a, v)
	cols := x.columns()
	best, hub := uint64(graph.Inf), graph.Vertex(-1)
	w0, below := 0, 0 // set bits in words[:w0]; mid columns rise along the run
	for i, h := range hubs {
		d := ^D(0) // absent, as an empty head slot
		switch c := int(cols[h]); {
		case c > 0:
			d = hr[c-1]
		case c < 0:
			c = -1 - c
			for ; w0 < c>>6; w0++ {
				below += bits.OnesCount64(words[w0])
			}
			if bit := uint64(1) << (c & 63); words[w0]&bit != 0 {
				d = md[below+bits.OnesCount64(words[w0]&(bit-1))]
			}
		default:
			if j, ok := slices.BinarySearch(th, h); ok {
				d = td[j]
			}
		}
		if sum := uint64(dists[i]) + uint64(d); d != ^D(0) && sum < best {
			best, hub = sum, h
		}
	}
	runtime.KeepAlive(x)
	return graph.Dist(best), hub
}

// columns returns, per hub, the column finalize gave it — head column c
// as c+1, mid column c as -1-c, 0 in the tails — built on first use.
func (x *Index) columns() []int32 {
	x.colsOnce.Do(func() {
		x.cols = make([]int32, x.NumVertices())
		for c, h := range x.headHubs {
			x.cols[h] = int32(c + 1)
		}
		for c, h := range x.midHubs {
			x.cols[h] = int32(-1 - c)
		}
	})
	runtime.KeepAlive(x)
	return x.cols
}

// checkPair validates a query pair, panicking with a descriptive
// message for out-of-range ids. The check is uniform: an out-of-range s
// or t panics whether or not s == t. (Previously s == t short-circuited
// to 0 before any bounds check, so an out-of-range pair with equal ids
// silently "succeeded" while an unequal one crashed with a raw
// slice-index panic.) The panic itself lives in a cold helper so this
// check stays under the inlining budget — it runs once per query on the
// hot path.
// The fast path folds both bounds checks into one compare: for
// non-negative ids, s|t < n implies both are in range, and a negative
// id turns the unsigned compare huge. The compare can fire spuriously
// (s|t can exceed max(s,t) — e.g. 1|2 = 3), so the cold path re-checks
// precisely and simply returns for such false alarms.
func (x *Index) checkPair(s, t graph.Vertex) {
	if uint32(s)|uint32(t) >= uint32(len(x.off)-1) {
		checkPairSlow(s, t, len(x.off)-1)
	}
}

func checkPairSlow(s, t graph.Vertex, n int) {
	if uint(s) >= uint(n) || uint(t) >= uint(n) {
		panic(fmt.Sprintf("label: query pair (%d,%d) out of range [0,%d)", s, t, n))
	}
}

// tail cuts v's tail run out of the flat arrays; with row and mid, the
// ramp every query shape shares, small enough to inline into each. The
// pin here covers the offset reads only: the returned slices alias x's
// possibly-mmap'd arrays, so the caller pins x again after its last
// read of them (the same contract as Label).
func tail[D distance](x *Index, a *arrays[D], v graph.Vertex) ([]graph.Vertex, []D) {
	lo, hi := x.off[v], x.off[v+1]
	runtime.KeepAlive(x)
	return x.hubs[lo:hi], a.dists[lo:hi]
}

// row cuts v's head row: K distances, zero-length when the index has no
// head. It reads no element, so it pins nothing; the caller pins x after
// its last read of the row, as for tail.
func row[D distance](x *Index, a *arrays[D], v graph.Vertex) []D {
	k := len(x.headHubs)
	return a.head[int(v)*k:][:k]
}

// mid cuts v's bitmap row — W words — and the packed distances of its
// set bits, both zero-length when the index has no middle tier. As with
// tail, the pin covers the offset reads only.
func mid[D distance](x *Index, a *arrays[D], v graph.Vertex) ([]uint64, []D) {
	w := midWords(len(x.midHubs))
	if w == 0 {
		return nil, nil
	}
	lo, hi := x.midOff[v], x.midOff[v+1]
	runtime.KeepAlive(x)
	return x.midBits[int(v)*w:][:w], a.midDists[lo:hi]
}

// rowMin is the head's share of QUERY(s,t,L): min over c of a[c] + b[c]
// for two head rows, graph.Inf when no column is held by both. The sum
// is taken in 64 bits and clamped once at the end (see Index): a slot
// either vertex lacks holds the all-ones value and contributes at least
// that. The loop has no data-dependent branch — min compiles to a
// conditional move — and no hub ids to compare: the columns line up by
// construction. Two accumulators, because with contiguous loads the one
// chain of compare and conditional move is what a single one waits on:
// 235 -> 185 ns at K = 210 (minOver's loads are gathers, and there a
// second one bought nothing).
func rowMin[D distance](a, b []D) graph.Dist {
	b = b[:len(a)]
	even, odd := uint64(^D(0)), uint64(^D(0))
	c := 0
	for ; c+1 < len(a); c += 2 {
		even = min(even, uint64(a[c])+uint64(b[c]))
		odd = min(odd, uint64(a[c+1])+uint64(b[c+1]))
	}
	if c < len(a) {
		even = min(even, uint64(a[c])+uint64(b[c]))
	}
	return clamp[D](min(even, odd))
}

// rowArgMin is rowMin that also reports the first column achieving the
// minimum, -1 when it is graph.Inf.
func rowArgMin[D distance](a, b []D) (graph.Dist, int) {
	b = b[:len(a)]
	best, col := uint64(^D(0)), -1
	for c, d := range a {
		if sum := uint64(d) + uint64(b[c]); sum < best {
			best, col = sum, c
		}
	}
	return clamp[D](best), col
}

// meet folds a column tier's answer — a distance and the column of cols
// achieving it, -1 for none — into the answer so far: the smaller
// distance, and between equal distances the smaller hub id — the hub one
// merge over the two full labels would have kept.
func meet(cols []graph.Vertex, cd graph.Dist, col int, d graph.Dist, hub graph.Vertex) (graph.Dist, graph.Vertex) {
	if col < 0 {
		return d, hub
	}
	if h := cols[col]; cd < d || cd == d && h < hub {
		return cd, h
	}
	return d, hub
}

// Query returns the shortest-path distance between s and t, or graph.Inf
// if no common hub covers the pair (disconnected). Complexity is O(K)
// for the head, O(W) words plus a rank per common bit for the middle
// tier, and O(|tail(s)| + |tail(t)|) for the merge, dropping to
// O(min·log(max/min)) for strongly asymmetric tails via the galloping
// merge. It allocates nothing. Out-of-range ids panic with a descriptive
// message (consistently — including when s == t).
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	x.checkPair(s, t)
	if s == t {
		return 0
	}
	d, _ := query[distOnly](x, s, t, nil)
	return d
}

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum (useful for path reconstruction and diagnostics): the smallest
// hub id among those that do. hub is -1 when the pair is disconnected;
// for s == t it returns (0, s). Out-of-range ids panic exactly as in
// Query.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	x.checkPair(s, t)
	if s == t {
		return 0, s
	}
	return query[withHub](x, s, t, nil)
}

// query answers one pair of distinct vertices in mode M: the one place a
// lone pair is dispatched on the index's distance width.
func query[M mode](x *Index, s, t graph.Vertex, ex *Explain) (graph.Dist, graph.Vertex) {
	switch x.w {
	case 1:
		return pair[M](x, &x.a8, s, t, ex)
	case 2:
		return pair[M](x, &x.a16, s, t, ex)
	}
	return pair[M](x, &x.a32, s, t, ex)
}

// pair is QUERY(s,t,L) over the three tiers: the merge of the two tails,
// the rank scan of the two bitmap rows and the scan of the two head
// rows, and between equal distances the smaller hub id (meet). ex is
// written only under counting and may be nil otherwise.
func pair[M mode, D distance](x *Index, a *arrays[D], s, t graph.Vertex, ex *Explain) (graph.Dist, graph.Vertex) {
	var m M
	ah, ad := tail(x, a, s)
	bh, bd := tail(x, a, t)
	d, hub := merge[M](ah, ad, bh, bd, ex)
	sb, sd := mid(x, a, s)
	tb, td := mid(x, a, t)
	md, mc := midMin[M](sb, sd, tb, td, ex)
	if len(m) == 0 {
		d = min(d, md, rowMin(row(x, a, s), row(x, a, t)))
	} else {
		d, hub = meet(x.midHubs, md, mc, d, hub)
		hd, hc := rowArgMin(row(x, a, s), row(x, a, t))
		d, hub = meet(x.headHubs, hd, hc, d, hub)
	}
	runtime.KeepAlive(x) // the three kernels read slices aliasing x's mapping
	return d, hub
}

// LabelSizeHistogram returns counts of vertices by label-list length,
// as parallel (size, count) slices sorted by size.
func (x *Index) LabelSizeHistogram() (sizes []int, counts []int) {
	m := make(map[int]int)
	for v := 0; v < x.NumVertices(); v++ {
		m[x.LabelSize(graph.Vertex(v))]++
	}
	for s := range m {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	counts = make([]int, len(sizes))
	for i, s := range sizes {
		counts[i] = m[s]
	}
	return sizes, counts
}
