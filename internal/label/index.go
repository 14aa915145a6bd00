package label

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"parapll/internal/graph"
)

// Index is the immutable, query-optimized form of a label set: a 2-hop
// cover answering the paper's QUERY(s,t,L) = min over common hubs u of
// σ(P(u,s)) + σ(P(u,t)). A label L(v) is stored in three parts, and
// which part holds an entry depends only on how many labels its hub is
// in; the rules need no order and no tuning, and pick no hub at all where
// none is that common.
//
// The head is a dense n × K matrix of distances, one column per head hub:
// a hub that appears in more than half the labels (PLL's first roots
// reach almost every vertex). A vertex that lacks a head hub holds the
// all-ones value of the distance width in its slot, and the head's share
// of a query is one branch-free pass over two contiguous rows (rowMin).
// The n/2 rule is not the byte-optimal one: at width w a head column
// costs n·w bytes and a bit column n/8 + c·w for c appearances, so the
// head is the smaller only above n(1 − 1/(8w)) labels. It is kept for
// rowMin's speed, at a measured cost of at most 5 % of the file: the
// per-column minimum would shrink the benchmark's p2p index by 5.0 %
// (K 136 -> 27), the living graph's by 4.3 % and road's by 4.8 %.
//
// The middle tier is a bitmap: a hub in more than n/32 labels (and not
// in the head) becomes bit column c of an n × W matrix of 64-bit words,
// W = ceil(K2/64), and the distances of a vertex's set bits are packed
// behind it in column order. A column costs n/8 bytes of bitmap and
// saves the tail hub id of every entry it takes: against a 4-byte id
// that pays from n/32 labels up, which is the rule. Against the 2-byte
// ids below it pays from n/16, but that rule read the lone p2p query
// 14 % slower (EXPERIMENTS.md), so those between keep their hub ids. Its
// share of a query ANDs two bitmap rows and ranks each common bit in
// both by a popcount of the bits below it (midMin, mid.go).
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
// A tail hub id is 2 bytes when every vertex id fits (n <= 65 536), else
// 4, and both offset arrays are 4 bytes, so finalize refuses 2³² tail or
// mid entries. The arrays at the two widths are an *arrays[H, D] behind
// the layout interface, whose methods are the kernels at those widths.
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
// Every index is one PIDM image (mmap.go) and its arrays alias it: a
// heap []byte finalize dealt the labels into, or a mapped file (Open).
// A tool that only saves an index has finalize deal the same bytes into
// the file (WriteLabels), and never holds its label store and a heap copy
// of the index at once. Queries are identical either way.
//
// A mapped index stays mapped until Close: whoever opened it closes it,
// once nothing reads it (a server counts its readers with Refs). A heap
// image needs nothing: the collector tracks the []byte its arrays alias.
type Index struct {
	Header // of img: the counts, the two widths and the sections

	off []uint32 // len n+1: tail run of v is [off[v], off[v+1])

	headHubs []graph.Vertex // the K head hubs, ascending

	midHubs []graph.Vertex // the K2 mid hubs, ascending
	midBits []uint64       // n × W row-major, W = ceil(K2/64): bit c of row v set iff midHubs[c] ∈ L(v)
	midOff  []uint32       // len n+1, nil when K2 = 0: mid run of v is midDists[midOff[v]:midOff[v+1]]

	// The tail hub ids and the distances, an *arrays[H, D] at the index's
	// two widths, whose methods are the kernels instantiated there.
	a layout

	img []byte   // the PIDM image every array above aliases: heap or mapped
	mm  *mapping // non-nil when the index was read from a file (see Open)

	cols     []int32 // MergeRun's hub-to-column map (columns)
	colsOnce sync.Once

	// scratch pools *batchScratch for QueryBatch and its workers: a
	// sync.Pool, so it holds about one per concurrently running worker
	// and the collector takes back what a quiet period leaves idle.
	scratch sync.Pool
}

// distance is the set of types a stored distance has.
type distance interface{ ~uint8 | ~uint16 | ~uint32 }

// hubID is the set of types a tail hub id has: 2 bytes when every vertex
// id fits (n <= 65 536), else 4.
type hubID interface{ ~uint16 | ~int32 }

// arrays holds an index's tail hub ids at width H and its distances at
// width D.
type arrays[H hubID, D distance] struct {
	hubs     []H // tail, flat, sorted by hub within each vertex run
	head     []D // n × K row-major: head[v*K+c] = d(headHubs[c], v), or ^D(0)
	midDists []D // the distances of the set mid bits, row by row in column order
	dists    []D // tail, beside hubs
}

// layout is an index's arrays as its entry points see them: each method
// is a kernel at the index's H and D, so an entry point dispatches on the
// two widths by one call. No per-query argument reaches the heap through
// it: the explain record goes by value, HubDist's run stays in a frame.
type layout interface {
	query(x *Index, s, t graph.Vertex) graph.Dist
	queryHub(x *Index, s, t graph.Vertex) (graph.Dist, graph.Vertex)
	explain(x *Index, ex Explain) Explain
	scan(x *Index, pairs [][2]graph.Vertex, keys []uint64, hub []graph.Dist)
	label(x *Index, v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) ([]graph.Vertex, []graph.Dist)
	labelSize(x *Index, v graph.Vertex) int
	mergeRun(x *Index, v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) (graph.Dist, graph.Vertex)
	hubDist(x *Index, v, h graph.Vertex) graph.Dist
	scatter(p *Probe, x *Index, v graph.Vertex)
	covers(p *Probe, x *Index, v graph.Vertex, d graph.Dist) bool
	checkEntries(x *Index, strict bool) error
	deal(d *dealer, list func(v int) []Entry, slot []int32)
	slice(data []byte, h Header, alias bool) layout
}

// layoutFor returns empty arrays at hubBytes-byte tail hubs and
// width-byte distances.
func layoutFor(hubBytes, width int) layout {
	if hubBytes == 2 {
		return withWidth[uint16](width)
	}
	return withWidth[graph.Vertex](width)
}

func withWidth[H hubID](width int) layout {
	switch width {
	case 1:
		return &arrays[H, uint8]{}
	case 2:
		return &arrays[H, uint16]{}
	}
	return &arrays[H, graph.Dist]{}
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

// Close unmaps an Open'd index. Nothing may read the index, or a slice
// Label returned, afterwards: its owner closes it once every reader is
// done (see Refs). Close on a heap-backed index, or a second Close, is a
// no-op.
func (x *Index) Close() error {
	if x.mm == nil {
		return nil
	}
	mm := x.mm
	x.mm = nil
	return mm.close()
}

// Refs counts the references to a value its owner closes once nothing
// reads it: the owner's own, held from creation until the owner
// publishes the value's successor or shuts down, plus one per reader
// between Acquire and Release. A type takes part by embedding Refs; the
// zero Refs holds the owner's reference.
type Refs struct {
	n atomic.Int64 // references held, less the owner's; -1 once the last is gone
}

// Release drops one reference and reports whether it was the last: the
// caller that sees true closes the value.
func (r *Refs) Release() bool { return r.n.Add(-1) < 0 }

// refs is what Acquire finds in a type embedding Refs.
func (r *Refs) refs() *Refs { return r }

// Acquire loads the value p holds and takes a reference on it. A value
// whose count has already fallen to zero was replaced and closed, so
// Acquire loads again: it increments only a non-zero count, since a
// plain increment would revive a value its owner has closed. It returns
// nil when p holds nil, or a value its owner closed for good (replacing
// a value stores its successor before the owner's Release).
func Acquire[T any, P interface {
	*T
	refs() *Refs
}](p *atomic.Pointer[T]) P {
	for {
		v := P(p.Load())
		if v == nil {
			return nil
		}
		r := v.refs()
		for n := r.n.Load(); n >= 0; n = r.n.Load() {
			if r.n.CompareAndSwap(n, n+1) {
				return v
			}
		}
		if P(p.Load()) == v {
			return nil
		}
	}
}

// NewIndex finalizes a Store into an Index: every label list is sorted by
// hub id, duplicate hubs are collapsed to their minimum distance, and the
// hubs common enough to pay for a column move to the head or the middle
// tier. Each label streams to finalize as the store's head cells then its
// list (Store.List); finalize's tier rules are its own, whatever the
// store's head held. The store is read, not consumed; it must be
// quiescent (no appends racing the finalize).
func NewIndex(s *Store) *Index { return NewIndexFunc(s.NumVertices(), s.List()) }

// NewIndexFromLists finalizes per-vertex label lists (as built by the
// serial PLL, which needs no concurrent Store) into an Index, exactly as
// NewIndex does.
func NewIndexFromLists(lists [][]Entry) *Index {
	return NewIndexFunc(len(lists), func(v int) []Entry { return lists[v] })
}

// NewIndexFunc is NewIndexFromLists over lists made on demand: each of two
// passes calls list(v) for v in order, and list may reuse its storage.
func NewIndexFunc(n int, list func(v int) []Entry) *Index { return build(n, list, allTiers) }

// WriteLabels writes to w the PIDM image NewIndexFunc(n, list) would
// build — the bytes its WriteMmap writes — without building it: beside
// list's storage it holds O(n) counters, one label's scratch and the
// nine section blocks. It returns the header, which it writes last, at
// offset 0; after an error w holds part of an image.
func WriteLabels(w io.WriterAt, n int, list func(v int) []Entry) (Header, error) {
	return finalize(n, list, allTiers, func(int64) (io.WriterAt, error) { return w, nil })
}

// build finalizes n lists into an index over its own heap image.
func build(n int, list func(v int) []Entry, use tiers) *Index {
	var img image
	h, err := finalize(n, list, use, func(size int64) (io.WriterAt, error) {
		img = make(image, size)
		return img, nil
	})
	var x *Index
	if err == nil {
		x, err = slicePIDM(img, h)
	}
	if err != nil {
		panic(err) // a heap image takes every write, and finalize deals what slicePIDM checks
	}
	return x
}

// image is a PIDM image on the heap, written as a file is.
type image []byte

func (b image) WriteAt(p []byte, off int64) (int, error) { return copy(b[off:], p), nil }

// Flat returns an index over the same labels with every entry in the
// tail and every hub and distance at 4 bytes, so that Label returns the
// stored runs — x itself when it is such an index. It is the baseline
// the tiers are measured against (BenchmarkQueryKernel's -flat rows).
func (x *Index) Flat() *Index { return x.relayout(tailOnly) }

// HeadOnly returns an index over the same labels with a head and no
// middle tier: the baseline the bitmap tier is measured against
// (BenchmarkQueryKernel's -nomid rows).
func (x *Index) HeadOnly() *Index { return x.relayout(headAndTail) }

// relayout finalizes x's labels again under another choice of tiers.
func (x *Index) relayout(use tiers) *Index {
	if use == tailOnly && x.k == 0 && x.k2 == 0 && x.width == 4 && x.hubBytes == 4 {
		return x
	}
	var hubs []graph.Vertex
	var dists []graph.Dist
	var entries []Entry
	y := build(x.NumVertices(), func(v int) []Entry {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		entries = entries[:0]
		for i, h := range hubs {
			entries = append(entries, Entry{Hub: h, D: dists[i]})
		}
		return entries
	}, use)
	return y
}

// tiers says which column tiers finalize may fill. Every index a build
// or a reader produces has allTiers; the others exist for Flat and
// HeadOnly.
type tiers int

const (
	tailOnly tiers = iota // hubs and distances at 4 bytes: Label aliases the runs
	headAndTail
	allTiers
)

// finalize streams n label lists into a PIDM image in two passes, and
// returns its header. The first counts the labels each hub appears in (a
// duplicate within one list once) and takes the largest distance, which
// fixes the header — every hub in more than n/2 labels goes to the head,
// every other hub in more than n/32 to the middle tier, as far as use
// allows; the widths of a distance and a tail hub id (see Index); the
// exact size of every section and so of the image, which open is given
// to return where it goes. The second is deal, into the nine section streams, and the
// header is written last. A hub outside [0,n) or a distance of graph.Inf
// is a builder's bug and panics (the Index invariant). list(v) may reuse
// its result's storage between calls.
func finalize(n int, list func(v int) []Entry, use tiers, open func(size int64) (io.WriterAt, error)) (Header, error) {
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
	// slot[hub] is where hub's entries go: its head column c as c, its mid
	// column c as -2-c, -1 for the tail; it takes over seen.
	h := Header{n: n, total: total, tail: total}
	slot := seen
	var headHubs, midHubs []graph.Vertex
	for hub := range slot {
		slot[hub] = -1
		switch c := int64(count[hub]); {
		case use >= headAndTail && 2*c > int64(n):
			slot[hub] = int32(len(headHubs))
			headHubs = append(headHubs, graph.Vertex(hub))
			h.tail -= c
		case use >= allTiers && 32*c > int64(n):
			slot[hub] = int32(-2 - len(midHubs))
			midHubs = append(midHubs, graph.Vertex(hub))
			h.tail -= c
			h.mid += c
		}
	}
	h.k, h.k2 = len(headHubs), len(midHubs)
	wide := use == tailOnly
	switch {
	case wide || uint64(dmax) > maxDist[uint16]():
		h.width = 4
	case uint64(dmax) > maxDist[uint8]():
		h.width = 2
	default:
		h.width = 1
	}
	h.hubBytes = 2
	if wide || n > 1<<16 {
		h.hubBytes = 4
	}
	if h.tail >= 1<<32 || h.mid >= 1<<32 {
		return h, fmt.Errorf("label: entry count overflows a 4-byte offset: %d tail and %d mid entries", h.tail, h.mid)
	}
	w, err := open(int64(h.layout()))
	if err != nil {
		return h, err
	}
	d := &dealer{w: w, h: &h}
	for i := range d.sec {
		d.sec[i] = section{d: d, at: int64(h.lo[i]), buf: make([]byte, min(pidmBlock, h.size[i]))}
	}
	put(&d.sec[secHeadHubs], headHubs)
	put(&d.sec[secMidHubs], midHubs)
	layoutFor(h.hubBytes, h.width).deal(d, list, slot)
	return h, d.close()
}

// deal is finalize's second pass, at the width its first one chose: it
// packs each list into one reused scratch buffer of keys, sorts and
// deduplicates them there and deals its entries to the vertex's head
// row, bitmap row and packed mid run, or its tail run, then puts each to
// its section beside the running offsets — so beside the source lists
// only one label's scratch and the section blocks are ever live. The
// scratch is deal's own: ranks of a cluster finalize at once.
func (*arrays[H, D]) deal(d *dealer, list func(v int) []Entry, slot []int32) {
	row := make([]D, d.h.k)
	words := make([]uint64, midWords(d.h.k2))
	var keys []uint64
	var hubs []H
	var dists, mids []D
	off, midOff := []uint32{0}, []uint32{0}
	put(&d.sec[secOff], off)
	if len(words) > 0 {
		put(&d.sec[secMidOff], midOff)
	}
	for v := 0; v < d.h.n && d.err == nil; v++ {
		keys = keys[:0]
		for _, e := range list(v) {
			keys = append(keys, pack(e))
		}
		for c := range row {
			row[c] = ^D(0)
		}
		clear(words)
		hubs, dists, mids = hubs[:0], dists[:0], mids[:0]
		// Entries come in hub order and columns were numbered in hub
		// order, so a vertex's mid distances land in column order.
		for _, k := range sortDedupe(keys) {
			e := unpack(k)
			switch c := slot[e.Hub]; {
			case c >= 0:
				row[c] = D(e.D)
			case c == -1:
				hubs, dists = append(hubs, H(e.Hub)), append(dists, D(e.D))
			default:
				c = -2 - c
				words[c>>6] |= 1 << uint(c&63)
				mids = append(mids, D(e.D))
			}
		}
		put(&d.sec[secHead], row)
		put(&d.sec[secMidBits], words)
		put(&d.sec[secMidDists], mids)
		put(&d.sec[secHubs], hubs)
		put(&d.sec[secDists], dists)
		off[0] += uint32(len(hubs))
		put(&d.sec[secOff], off)
		if len(words) > 0 {
			midOff[0] += uint32(len(mids))
			put(&d.sec[secMidOff], midOff)
		}
	}
}

// dealer writes an image whose header it has: its nine sections as
// streams in file order, and then the header with their checksums.
type dealer struct {
	w   io.WriterAt
	h   *Header
	sec [numSections]section
	err error // the first failed write; later writes are skipped
}

// section is one section's stream: a block of at most pidmBlock bytes,
// where in the image it goes next, and the checksum of what went before.
type section struct {
	d   *dealer
	at  int64 // the block's offset
	buf []byte
	n   int // bytes in buf
	crc uint32
}

func (d *dealer) writeAt(p []byte, at int64) {
	if d.err == nil && len(p) > 0 {
		if k, err := d.w.WriteAt(p, at); err != nil || k < len(p) {
			d.err = cmp.Or(err, io.ErrShortWrite)
		}
	}
}

// close flushes every section, pads it with zeros up to the next and
// writes the header over the image's first bytes.
func (d *dealer) close() error {
	var zero [mmapAlign]byte
	for i := range d.sec {
		s := &d.sec[i]
		s.flush()
		d.h.crc[i] = s.crc
		if i+1 < numSections && d.err == nil {
			d.writeAt(zero[:int64(d.h.lo[i+1])-s.at], s.at)
		}
	}
	d.writeAt(d.h.encode(), 0)
	return d.err
}

func (s *section) flush() {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[:s.n])
	s.d.writeAt(s.buf[:s.n], s.at)
	s.at += int64(s.n)
	s.n = 0
}

// put appends vals to the section, little-endian: on a little-endian
// host a copy of their bytes.
func put[T word](s *section, vals []T) {
	size := int(unsafe.Sizeof(T(0)))
	for len(vals) > 0 {
		if s.n == len(s.buf) {
			s.flush()
		}
		k := min(len(vals), (len(s.buf)-s.n)/size)
		dst := s.buf[s.n:][:k*size]
		if hostLittleEndian {
			copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), k*size))
		} else {
			for i, v := range vals[:k] {
				for b := range size {
					dst[i*size+b] = byte(uint64(v) >> (8 * b))
				}
			}
		}
		s.n += k * size
		vals = vals[k:]
	}
}

// midWords returns W, the 64-bit words in one bitmap row of k2 columns.
func midWords(k2 int) int { return (k2 + 63) >> 6 }

// sortDedupe sorts one label list of packed entries in place and returns
// its prefix with duplicate hubs collapsed to their minimum distance —
// the strictly hub-increasing form every merge kernel requires. A packed
// entry orders by hub, then distance, so the sort is of plain integers.
func sortDedupe(keys []uint64) []uint64 {
	slices.Sort(keys)
	out := keys[:0]
	for _, k := range keys {
		if len(out) > 0 && out[len(out)-1]>>32 == k>>32 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// pack is e as one key, uint64(hub)<<32 | d; finalize has checked that
// the hub is a vertex, so non-negative.
func pack(e Entry) uint64 { return uint64(e.Hub)<<32 | uint64(e.D) }

// unpack is pack's inverse.
func unpack(k uint64) Entry { return Entry{Hub: graph.Vertex(k >> 32), D: graph.Dist(k)} }

// Equal reports whether two indexes hold identical labels — the same
// (hub, distance) pairs for every vertex — regardless of storage backing
// (heap or mmap), origin and where each keeps the split between the
// tiers. This is the invariant the round-trip tests assert.
func (x *Index) Equal(y *Index) bool {
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
func (h *Header) NumVertices() int { return h.n }

// NumEntries returns the total number of label entries, wherever they
// are stored: finite head slots, set mid bits and tail entries.
func (h *Header) NumEntries() int64 { return h.total }

// AvgLabelSize returns the mean entries per vertex — the paper's LN metric
// reported in Tables 3–5.
func (h *Header) AvgLabelSize() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.total) / float64(h.n)
}

// Head returns the number of head columns K and the share of the n × K
// head slots that hold an entry (0 when K is 0).
func (h *Header) Head() (k int, density float64) {
	if slots := h.n * h.k; slots != 0 {
		density = float64(h.total-h.tail-h.mid) / float64(slots)
	}
	return h.k, density
}

// Mid returns the number of bitmap columns K2 and the share of the
// n × K2 bits that are set (0 when K2 is 0).
func (h *Header) Mid() (k2 int, density float64) {
	if slots := h.n * h.k2; slots != 0 {
		density = float64(h.mid) / float64(slots)
	}
	return h.k2, density
}

// DistBytes returns the width of a stored distance: 1, 2 or 4 bytes,
// fixed by the largest distance in the labels (see Index).
func (h *Header) DistBytes() int { return h.width }

// HubBytes returns the width of a tail hub id: 2 bytes when every vertex
// id fits, else 4.
func (h *Header) HubBytes() int { return h.hubBytes }

// MemoryBytes returns the bytes of the index's arrays (offsets, tail hubs
// and distances, head, bitmap and packed mid distances), its sections'
// payload. The paper reports this linear-in-(n·LN) quantity peaking at
// 2.2 GB in its evaluation.
func (h *Header) MemoryBytes() int64 {
	var sum uint64
	for _, size := range h.size {
		sum += size
	}
	return int64(sum)
}

// LabelSize returns |L(v)|.
func (x *Index) LabelSize(v graph.Vertex) int { return x.a.labelSize(x, v) }

func (a *arrays[H, D]) labelSize(x *Index, v graph.Vertex) int {
	_, md := mid(x, a, v)
	size := int(x.off[v+1]-x.off[v]) + len(md)
	for _, d := range row(x, a, v) {
		if d != ^D(0) {
			size++
		}
	}
	return size
}

// Label returns v's entries, hub-sorted. An index with every entry in
// the tail, hubs and distances at 4 bytes (Flat) returns its stored run;
// otherwise the bitmap row's entries and the tail run are interleaved
// into hubs[:0] and dists[:0], which a caller walking many labels passes
// back in to reuse, and the head row's are merged in from the back.
// Either way the result is read-only, and for a mapped index valid until
// Close.
func (x *Index) Label(v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) ([]graph.Vertex, []graph.Dist) {
	if a, ok := x.a.(*arrays[graph.Vertex, graph.Dist]); ok && x.k == 0 && x.k2 == 0 {
		return tail(x, a, v)
	}
	return x.a.label(x, v, hubs, dists)
}

func (a *arrays[H, D]) label(x *Index, v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) ([]graph.Vertex, []graph.Dist) {
	th, td := tail(x, a, v)
	hubs, dists = hubs[:0], dists[:0]
	words, md := mid(x, a, v)
	j, rank := 0, 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			h := x.midHubs[w<<6+bits.TrailingZeros64(word)]
			for ; j < len(th) && graph.Vertex(th[j]) < h; j++ {
				hubs, dists = append(hubs, graph.Vertex(th[j])), append(dists, graph.Dist(td[j]))
			}
			hubs, dists = append(hubs, h), append(dists, graph.Dist(md[rank]))
			rank++
		}
	}
	for ; j < len(th); j++ {
		hubs, dists = append(hubs, graph.Vertex(th[j])), append(dists, graph.Dist(td[j]))
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
	return hubs, dists
}

// MergeRun is MergeRuns of a strictly hub-increasing run, each hub a
// vertex of the index, against L(v): each hub is looked up where finalize
// put it — head column, bitmap bit ranked by popcounts, tail entry by
// binary search — at a cost per hub of the run, whatever L(v)'s length.
func (x *Index) MergeRun(v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) (graph.Dist, graph.Vertex) {
	return x.a.mergeRun(x, v, hubs, dists)
}

// HubDist returns the distance L(v) holds for hub h, a vertex of the
// index, or graph.Inf: MergeRun of the run (h, 0), minus its slices.
func (x *Index) HubDist(v, h graph.Vertex) graph.Dist { return x.a.hubDist(x, v, h) }

func (a *arrays[H, D]) hubDist(x *Index, v, h graph.Vertex) graph.Dist {
	d, _ := a.mergeRun(x, v, []graph.Vertex{h}, []graph.Dist{0})
	return d
}

func (a *arrays[H, D]) mergeRun(x *Index, v graph.Vertex, hubs []graph.Vertex, dists []graph.Dist) (graph.Dist, graph.Vertex) {
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
			if j, ok := slices.BinarySearch(th, H(h)); ok {
				d = td[j]
			}
		}
		if sum := uint64(dists[i]) + uint64(d); d != ^D(0) && sum < best {
			best, hub = sum, h
		}
	}
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
func tail[H hubID, D distance](x *Index, a *arrays[H, D], v graph.Vertex) ([]H, []D) {
	lo, hi := x.off[v], x.off[v+1]
	return a.hubs[lo:hi], a.dists[lo:hi]
}

// row cuts v's head row: K distances, zero-length when the index has no
// head. It reads no element, so it pins nothing; the caller pins x after
// its last read of the row, as for tail.
func row[H hubID, D distance](x *Index, a *arrays[H, D], v graph.Vertex) []D {
	k := len(x.headHubs)
	return a.head[int(v)*k:][:k]
}

// mid cuts v's bitmap row — W words — and the packed distances of its
// set bits, both zero-length when the index has no middle tier. As with
// tail, the pin covers the offset reads only.
func mid[H hubID, D distance](x *Index, a *arrays[H, D], v graph.Vertex) ([]uint64, []D) {
	w := midWords(len(x.midHubs))
	if w == 0 {
		return nil, nil
	}
	lo, hi := x.midOff[v], x.midOff[v+1]
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
	return x.a.query(x, s, t)
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
	return x.a.queryHub(x, s, t)
}

// query, queryHub and explain are pair in the three modes.
func (a *arrays[H, D]) query(x *Index, s, t graph.Vertex) graph.Dist {
	d, _ := pair[distOnly](x, a, s, t, nil)
	return d
}

func (a *arrays[H, D]) queryHub(x *Index, s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return pair[withHub](x, a, s, t, nil)
}

func (a *arrays[H, D]) explain(x *Index, ex Explain) Explain {
	ex.Dist, ex.Hub = pair[counting](x, a, ex.S, ex.T, &ex)
	return ex
}

// pair is QUERY(s,t,L) over the three tiers: the merge of the two tails,
// the rank scan of the two bitmap rows and the scan of the two head
// rows, and between equal distances the smaller hub id (meet). ex is
// written only under counting and may be nil otherwise.
func pair[M mode, H hubID, D distance](x *Index, a *arrays[H, D], s, t graph.Vertex, ex *Explain) (graph.Dist, graph.Vertex) {
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
