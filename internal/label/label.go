// Package label implements the 2-hop-cover distance labels at the heart of
// PLL and ParaPLL: a concurrent Store used while indexing and the
// immutable, query-optimized Index finalized from it — one PIDM image,
// its arrays aliasing the heap or a mapped file, or streamed into a file
// (WriteLabels) by a tool that only saves it.
//
// The Store keeps L(v) in two parts. The first roots of the computing
// sequence — PLL's top hubs, each in most labels — may own the columns of
// a dense head of one-byte cells, eight to an atomic word, each written
// by a compare-and-swap on its word per settle (UseHead). Every other
// entry — a head hub's too, when its distance exceeds a byte — goes to
// v's list of segments, each twice the last, linked and never copied:
// lock-free reads, appends under the paper's Algorithm 2 "semaphore". A
// list entry is one 32-bit word, the hub in its low bits and the
// distance above them; an entry a word cannot hold leaves a placeholder
// in its slot and is kept whole in its vertex's wide table.
//
// A label entry (h, d) in L(v) asserts dist(h, v) = d for hub vertex h
// (subject to the parallel-construction caveat that redundant entries may
// record an overestimate for pairs already covered by a better hub; the
// QUERY minimum makes those harmless, per the paper's Proposition 1).
package label

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"parapll/internal/graph"
)

// Entry is one 2-hop label: hub vertex and distance from the hub to the
// labeled vertex.
type Entry struct {
	Hub graph.Vertex
	D   graph.Dist
}

// List is a label list as one read saw it: its first Len entries. In a
// store's list (Store.Snapshot) they are words in segments, 4·2^k in
// segment k, some of which may be placeholders of wide entries kept
// whole; in ListOf's they are all whole. Either way n carries wideBit
// when some are whole. Four fields, so that a List stays in registers
// from Snapshot to the prune test.
//
// A placeholder is its entry's hub at the all-ones distance, which is
// reserved for it: no entry a word holds has every distance bit set, so
// the k-th of a list's words with every distance bit set is the
// placeholder of the k-th entry of its vertex's wide table (wides.at).
// Its distance is below its entry's, so the prune test reads the entry
// only when the placeholder would cover (Probe.coversWide).
type List struct {
	s    *Store // store form: the store holding the list; nil for ListOf
	flat *Entry // ListOf form: the first entry
	v, n int32  // the vertex (store form), and the entries read with wideBit
}

// ListOf returns es as a List.
func ListOf(es []Entry) List { return List{flat: unsafe.SliceData(es), n: int32(len(es)) | wideBit} }

// Len returns the number of entries in l.
func (l List) Len() int { return int(l.n &^ wideBit) }

// words returns segment k of the store form's words, cut at Len: empty
// past the last, and for ListOf.
func (l List) words(k int) []uint32 {
	start, n := 4<<k-4, l.Len()
	if l.s == nil || start >= n {
		return nil
	}
	return unsafe.Slice(l.s.seg(int(l.v), k).Load(), min(4<<k, n-start))
}

// flatEntries returns the entries of ListOf's form.
func (l List) flatEntries() []Entry { return unsafe.Slice(l.flat, l.Len()) }

// wides reads a store list's wide table by placeholder count. It reads
// no entry past the list's last placeholder, and each one it reads was
// written, and its segment linked, before the list's length reached it.
type wides struct {
	seg  *wideSeg
	base int // the index of seg's first entry
}

// wides returns a reader of the store form's wide table; one that reads
// nothing for a list without wideBit.
func (l List) wides() wides {
	if l.n >= 0 {
		return wides{}
	}
	return wides{seg: &l.s.wideOf(int(l.v)).wideSeg}
}

// at returns entry i, the one of the list's i-th placeholder. Indexes
// asked must not decrease from one call to the next.
func (w *wides) at(i int) Entry {
	for i-w.base >= len(w.seg.e) {
		w.base += len(w.seg.e)
		w.seg = w.seg.next.Load()
	}
	return w.seg.e[i-w.base]
}

// isPlaceholder reports whether w is a placeholder in a store whose
// placeholders are ph and above (^Store.mask), as 0 or 1: a count the
// compiler keeps free of a branch, which a list mixing words and
// placeholders would mispredict.
func isPlaceholder(w, ph uint32) int {
	if w >= ph {
		return 1
	}
	return 0
}

// AppendTo appends l's entries to dst, in list order, and returns it.
func (l List) AppendTo(dst []Entry) []Entry {
	if l.s == nil {
		return append(dst, l.flatEntries()...)
	}
	wd, ph, c := l.wides(), ^l.s.mask, 0
	dst = slices.Grow(dst, l.Len())
	for k, ws := 0, l.words(0); len(ws) > 0; k, ws = k+1, l.words(k+1) {
		for _, w := range ws {
			e := l.s.entry(w)
			if w >= ph {
				e = wd.at(c)
				c++
			}
			dst = append(dst, e)
		}
	}
	return dst
}

// record is one vertex's list but for its length n (Store.lens, sixteen
// to a line, so a prune test the head decides touches no record): the
// append mutex and the first inline segments, 508 words, in one cache
// line. The store's levels, n pointers each, hold the later segments.
//
// Publication order. A writer (holding mu) fills slots past n, which no
// reader can see yet, and only then stores the longer n; a slot past the
// last segment is in a new one of twice its size, which the writer links
// (and its level) before it stores the n that reaches into it. A wide
// entry's placeholder slot is filled the same way, and its entry written
// and counted in the vertex's wide table (wideTab), and any segment of
// the table it needs linked, before that n too.
// Nothing is copied or replaced, and entries below a published n never
// change. A reader therefore loads n first, then each segment n covers
// and, when n carries wideBit, the wide table.
type record struct {
	mu   sync.Mutex
	segs [inline]atomic.Pointer[uint32]
}

const inline, maxSegs = 7, 30 // maxSegs hold any int32 length

// wideBit marks a length whose list holds an entry kept whole.
const wideBit = -1 << 31

// wideTab is one vertex's wide entries, in list order, in segments of
// 4·2^k entries linked like the list's and never copied. The writer
// links a segment and fills its entry before it stores the list length
// that reaches the entry's placeholder (record). A wide entry costs its
// 4-byte placeholder and 8 bytes here.
type wideTab struct {
	n    atomic.Int32 // entries written, for Wide
	last *wideSeg     // the segment the next entry goes to; the writer's alone
	wideSeg
	first [4]Entry // segment 0's entries, in the table's allocation
}

// wideSeg is segment k of a wide table: 4·2^k entries and the link to
// the next.
type wideSeg struct {
	e    []Entry
	next atomic.Pointer[wideSeg]
}

// seg returns where the pointer to segment k of v's list lives.
func (s *Store) seg(v, k int) *atomic.Pointer[uint32] {
	if k < inline {
		return &s.lists[v].segs[k]
	}
	return &unsafe.Slice(s.far[k-inline].Load(), len(s.lists))[v]
}

// word returns e as a list word, the hub in the low hb bits and the
// distance above them, and whether e fits one: a hub below 2^hb and a
// distance below the all-ones one, which is the placeholder's.
func (s *Store) word(e Entry) (uint32, bool) {
	w := uint64(uint32(e.Hub)) | uint64(e.D)<<s.hb
	return uint32(w), w < uint64(^s.mask) && uint32(e.Hub)>>s.hb == 0
}

// entry returns the entry a list word holds.
func (s *Store) entry(w uint32) Entry {
	return Entry{Hub: graph.Vertex(w & s.mask), D: graph.Dist(w >> s.hb)}
}

// wideOf returns v's wide table: nil before its first wide entry.
func (s *Store) wideOf(v int) *wideTab {
	tabs := s.wide.Load()
	if tabs == nil {
		return nil
	}
	return unsafe.Slice(tabs, len(s.lists))[v].Load()
}

// write appends es to v's list under its mutex, linking a segment at each
// boundary it reaches, and publishes the longer length.
func (s *Store) write(v int, es []Entry) {
	s.lists[v].mu.Lock()
	n := s.lens[v].Load()
	for len(es) > 0 {
		i := int(n &^ wideBit)
		k := bits.Len(uint(i/4+1)) - 1 // segment k holds slots 4·2^k-4 on
		off := i + 4 - 4<<k
		if off == 0 {
			if k >= inline && s.far[k-inline].Load() == nil {
				lv := make([]atomic.Pointer[uint32], len(s.lists))
				s.far[k-inline].CompareAndSwap(nil, unsafe.SliceData(lv)) // a writer that loses the race drops its copy
			}
			s.seg(v, k).Store(unsafe.SliceData(make([]uint32, 4<<k)))
		}
		seg := unsafe.Slice(s.seg(v, k).Load(), 4<<k)[off:]
		c := min(len(seg), len(es))
		for j, e := range es[:c] {
			w, ok := s.word(e)
			if !ok {
				w |= ^s.mask // the placeholder: see List
				s.keepWide(v, e)
				n |= wideBit
			}
			seg[j] = w
		}
		n, es = n+int32(c), es[c:]
	}
	s.lens[v].Store(n)
	s.lists[v].mu.Unlock()
}

// keepWide adds e to v's wide table, under v's mutex.
func (s *Store) keepWide(v int, e Entry) {
	if s.wide.Load() == nil {
		tabs := make([]atomic.Pointer[wideTab], len(s.lists))
		s.wide.CompareAndSwap(nil, unsafe.SliceData(tabs)) // a writer that loses the race drops its copy
	}
	t := s.wideOf(v)
	if t == nil {
		t = new(wideTab)
		t.e, t.last = t.first[:], &t.wideSeg
		unsafe.Slice(s.wide.Load(), len(s.lists))[v].Store(t)
	}
	j := int(t.n.Load())
	k := bits.Len(uint(j/4+1)) - 1 // segment k holds entries 4·2^k-4 on
	off := j + 4 - 4<<k
	if off == 0 && k > 0 {
		next := &wideSeg{e: make([]Entry, 4<<k)}
		t.last.next.Store(next)
		t.last = next
	}
	t.last.e[off] = e
	t.n.Store(int32(j + 1))
}

// headBlock is the number of columns a block of the build-time head
// holds: 64 one-byte cells, eight words, one cache line of a vertex's
// row.
const headBlock = 64

// headWords is the number of words a vertex's row of a block takes.
const headWords = headBlock / 8

// maxCell is the largest distance a head cell holds: a cell is a byte,
// and 0 marks it absent. A larger distance goes to the list.
const maxCell = 254

// Masks over a head word's eight cells: the low seven bits of each byte,
// and the high bit of each.
const (
	low7 = 0x7F7F7F7F7F7F7F7F
	high = 0x8080808080808080
)

// held returns a word with the high bit of each of w's nonzero bytes set
// and every other bit clear: each byte's low seven bits plus 0x7F carry
// into its high bit when nonzero, and no byte carries into the next.
func held(w uint64) uint64 { return ((w & low7) + low7 | w) & high }

// cellDist is the distance a nonzero cell byte holds.
func cellDist(b uint64) graph.Dist { return graph.Dist(^uint8(b)) }

// Store is the concurrent label set used during index construction.
//
// Concurrency contract: any number of goroutines may call Snapshot, Label
// and Len concurrently with appends; Append on the *same* vertex
// serializes on a per-vertex mutex, or on nothing for a head cell.
// Readers never block writers and vice versa. A list grows by linking a
// segment of twice the last one's size (record): no entry moves, and a
// list of L entries holds fewer than 2L+4 slots, all of them live.
//
// A slot is a 32-bit word: the hub in its low hb = bits.Len(n-1) bits,
// the distance in the other 32-hb. An entry that does not fit — a
// distance of 2^(32-hb)-1 or more (the all-ones distance is the
// placeholder's), graph.Inf among them, or a hub outside [0, 2^hb),
// which is no vertex of the store — fills its slot with a placeholder
// (List) and is kept whole in its vertex's wide table (wideTab); the
// published length carries wideBit from then on. Every reader takes it
// there, exactly: nothing is saturated or dropped. A prune test over a
// list without one pays one predictable branch on wideBit a test. A wide
// entry costs 12 bytes, 1.5 times an 8-byte entry, plus its table
// segment's slack, and the prune test reads its entry whenever its
// placeholder would cover: a graph whose distances mostly exceed a
// word's distance bits costs the store more memory and time than 8-byte
// entries did.
//
// The build-time head (UseHead) gives the root at position c of the
// computing sequence, while c is below the head's width K, column c of a
// dense n × K matrix of one-byte cells, so its entries of distance up to
// maxCell cost 1 byte a vertex where a list word costs 4 and the slack
// of its segment; a larger distance goes to the list. The matrix is a
// sequence of blocks, each n × headWords words of eight cells: cell
// (v, c) is byte c%8 of word v*headWords + (c%headBlock)/8 of block
// c/headBlock. A cell holds the complement of its distance, so the zeros
// a new block is made of read as absent and opening a block writes
// nothing. A cell only ever decreases, by compare-and-swap on its word;
// one not yet written reads absent, which is delayed visibility and by
// Proposition 1 only weakens pruning. Blocks are published copy-on-write
// (head), so a reader's blocks stay valid.
type Store struct {
	lens  []atomic.Int32 // published list lengths, with wideBit once a list holds a wide entry
	lists []record
	far   [maxSegs - inline]atomic.Pointer[atomic.Pointer[uint32]] // first of each level's n segment pointers past the records'
	wide  atomic.Pointer[atomic.Pointer[wideTab]]                  // first of n wide-table pointers; nil before the first wide entry
	hb    uint                                                     // the hub bits of a word
	mask  uint32                                                   // 2^hb - 1

	// begun[b] counts the roots of block b's positions whose searches have
	// begun; nil in a store without a head.
	begun []atomic.Int32
	head  atomic.Pointer[head]

	mu sync.Mutex // serializes opening blocks
}

// head is one published state of the build-time head: the computing
// sequence it follows, order, and its inverse, rank, shared by every
// state, and the blocks opened so far.
type head struct {
	order  []graph.Vertex
	rank   []int32
	blocks [][]atomic.Uint64
	closed bool // a block was refused: no further one opens
}

// column returns hub's column, or -1 when hub has none.
func (h *head) column(hub graph.Vertex) int {
	if c := int(h.rank[hub]); c < len(h.blocks)*headBlock {
		return c
	}
	return -1
}

// row returns v's words of block b.
func (h *head) row(b, v int) *[headWords]atomic.Uint64 {
	return (*[headWords]atomic.Uint64)(h.blocks[b][v*headWords:])
}

// NewStore returns an empty store for vertices [0,n), without a head.
func NewStore(n int) *Store {
	hb := uint(bits.Len(uint(max(n-1, 0))))
	return &Store{lens: make([]atomic.Int32, n), lists: make([]record, n), hb: hb, mask: 1<<hb - 1}
}

// NumVertices returns the number of vertices the store covers.
func (s *Store) NumVertices() int { return len(s.lists) }

// UseHead gives the store a build-time head for a build that searches
// its roots in the order ord, a permutation of the vertices, and calls
// BeginRoot before each search. Call it before the first Append.
func (s *Store) UseHead(ord []graph.Vertex) {
	rank := make([]int32, len(ord))
	for i, r := range ord {
		rank[r] = int32(i)
	}
	s.begun = make([]atomic.Int32, (len(ord)+headBlock-1)/headBlock)
	s.head.Store(&head{order: ord, rank: rank})
}

// BeginRoot is called before the search from the root at position pos of
// the order starts, so that the root's column, if it gets one, exists
// before its first settle. Columns open in root order, a block at a time:
// the first block on trust, each later one only while the columns of the
// block before it hold more than an eighth of their cells. A cell is 1
// byte and a list word 4, so a block at an eighth costs twice the words
// its entries would take (their segments' slack, up to as much again,
// narrows that), and breaks even at a quarter. The rule stays at an
// eighth: sized at a quarter it kept 256 columns on the build workload's
// p2p graph instead of 448 at the same peak, and a column's cells are
// what the prune test reads fastest (headCovers). The last block, the
// first one included when it opened on trust and is the only one, costs
// 64 bytes a vertex whatever its fill: on a graph whose top roots are
// sparse, or whose distances exceed a cell, that is what the head can
// cost beyond the lists it replaces. Once a block is refused the head
// stays closed. In a parallel build the rule counts the columns whose
// searches have begun — under the static policy a worker can reach the
// next block well before another starts its share of this one — and a
// column still being filled counts what it holds so far, which can only
// close the head earlier.
func (s *Store) BeginRoot(pos int) {
	if s.begun == nil {
		return
	}
	s.begun[pos/headBlock].Add(1)
	for {
		h := s.head.Load()
		if h.closed || pos < len(h.blocks)*headBlock {
			return
		}
		s.openBlock(h)
	}
}

// openBlock decides the block after h's last, unless another worker
// already has.
func (s *Store) openBlock(h *head) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head.Load() != h {
		return
	}
	n, k := len(s.lists), len(h.blocks)
	next := *h
	if k > 0 {
		next.closed = 8*finite(h.blocks[k-1]) <= int64(n)*int64(s.begun[k-1].Load())
	}
	if !next.closed {
		next.blocks = append(slices.Clip(h.blocks), make([]atomic.Uint64, n*headWords))
	}
	s.head.Store(&next)
}

// finite counts the cells of a run of head words that hold a distance.
func finite(words []atomic.Uint64) int64 {
	var n int
	for i := range words {
		if w := words[i].Load(); w != 0 {
			n += bits.OnesCount64(held(w))
		}
	}
	return int64(n)
}

// Head returns the number of columns the build-time head opened and the
// share of their cells that hold an entry (0, 0 without a head).
func (s *Store) Head() (k int, fill float64) {
	h := s.head.Load()
	if h == nil || len(h.blocks) == 0 {
		return 0, 0
	}
	var cells int64
	for _, blk := range h.blocks {
		cells += finite(blk)
	}
	k = min(len(h.blocks)*headBlock, len(s.lists))
	return k, float64(cells) / (float64(k) * float64(len(s.lists)))
}

// Append adds entry (hub, d) to L(v): into hub's head cell if it has one
// and d fits a cell, where the smaller distance stays, else at the end of
// v's list, which is neither sorted nor deduplicated (the final Index
// pass does both). It allocates only when L(v)'s list is full: a segment.
func (s *Store) Append(v graph.Vertex, hub graph.Vertex, d graph.Dist) {
	if h := s.head.Load(); h != nil && d <= maxCell {
		if c := h.column(hub); c >= 0 {
			w := &h.row(c/headBlock, int(v))[c%headBlock/8]
			shift := 8 * uint(c%8)
			b := uint64(^uint8(d)) << shift
			// Until the cell holds at most d: a lost race means another
			// writer stored a distance in this cell, which may already be
			// the smaller one, or in another cell of the word.
			for old := w.Load(); old&(0xFF<<shift) < b && !w.CompareAndSwap(old, old&^(0xFF<<shift)|b); old = w.Load() {
			}
			return
		}
	}
	s.write(int(v), []Entry{{Hub: hub, D: d}})
}

// Snapshot returns v's list: the entries of L(v) outside the head, in the
// order they arrived. The result is immutable: concurrent appends publish
// longer snapshots without disturbing this one.
func (s *Store) Snapshot(v graph.Vertex) List {
	return List{s: s, v: v, n: s.lens[v].Load()} // n before the segments and the wide table: see record
}

// Label returns L(v) as the hub side of a search reads it: v's head row
// and list.
func (s *Store) Label(v graph.Vertex) Label {
	return Label{h: s.head.Load(), v: int(v), Rest: s.Snapshot(v)}
}

// entries appends all of L(v) to dst — the head cells that hold a
// distance, in column order, then the list — and returns it.
func (s *Store) entries(v graph.Vertex, dst []Entry) []Entry {
	if h := s.head.Load(); h != nil {
		for b := range h.blocks {
			words := h.row(b, int(v))
			for i := range words {
				x := words[i].Load()
				for m := held(x); m != 0; m &= m - 1 {
					j := bits.TrailingZeros64(m) &^ 7
					c := b*headBlock + i*8 + j/8
					dst = append(dst, Entry{Hub: h.order[c], D: cellDist(x >> j)})
				}
			}
		}
	}
	return s.Snapshot(v).AppendTo(dst)
}

// List returns the list function NewIndexFunc and WriteLabels take over
// the store: L(v), its head cells then its list, in storage each call
// reuses.
func (s *Store) List() func(v int) []Entry {
	var buf []Entry
	return func(v int) []Entry {
		buf = s.entries(graph.Vertex(v), buf[:0])
		return buf
	}
}

// Len returns the current number of entries in L(v).
func (s *Store) Len(v graph.Vertex) int {
	n := int(s.lens[v].Load() &^ wideBit)
	if h := s.head.Load(); h != nil {
		for b := range h.blocks {
			n += int(finite(h.row(b, int(v))[:]))
		}
	}
	return n
}

// TotalEntries returns the total number of entries across all vertices,
// summed from the list lengths and the head's cells (appends share no
// counter).
func (s *Store) TotalEntries() int64 {
	var total int64
	for v := range s.lens {
		total += int64(s.lens[v].Load() &^ wideBit)
	}
	if h := s.head.Load(); h != nil {
		for _, blk := range h.blocks {
			total += finite(blk)
		}
	}
	return total
}

// Wide returns the number of entries kept whole, outside a list word:
// zero on a graph whose hubs and distances all fit one.
func (s *Store) Wide() int64 {
	var total int64
	for v := range s.lists {
		if t := s.wideOf(v); t != nil {
			total += int64(t.n.Load())
		}
	}
	return total
}

// BulkAppend adds several entries to v's list under a single lock
// acquisition, head hubs included: the prune test and finalize read a
// list entry for a head hub like any other. Used when merging
// synchronized labels from other cluster nodes.
func (s *Store) BulkAppend(v graph.Vertex, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	s.write(int(v), entries)
}
