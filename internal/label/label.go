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
// lock-free reads, appends under the paper's Algorithm 2 "semaphore".
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

// List is a label list as one read saw it: its first Len entries, in
// segments, 4·2^k entries in segment k of a store's list (Store.Snapshot)
// and one segment in ListOf's. Walk it with Seg, as AppendTo does.
type List struct {
	s    *Store // store form: the store holding the list; nil for ListOf
	flat *Entry // ListOf form: the first entry
	v, n int32  // the vertex (store form) and the entries read
}

// ListOf returns es as a List of one segment.
func ListOf(es []Entry) List { return List{flat: unsafe.SliceData(es), n: int32(len(es))} }

// Len returns the number of entries in l.
func (l List) Len() int { return int(l.n) }

// Seg returns segment k of l, cut at Len: empty past the last.
func (l List) Seg(k int) []Entry {
	start, n := 4<<k-4, int(l.n)
	if l.s == nil && k == 0 {
		return unsafe.Slice(l.flat, n)
	} else if l.s == nil || start >= n {
		return nil
	}
	return unsafe.Slice(l.s.seg(int(l.v), k).Load(), min(4<<k, n-start))
}

// AppendTo appends l's entries to dst and returns it.
func (l List) AppendTo(dst []Entry) []Entry {
	for k, seg := 0, l.Seg(0); len(seg) > 0; k, seg = k+1, l.Seg(k+1) {
		dst = append(dst, seg...)
	}
	return dst
}

// record is one vertex's list but for its length n (Store.lens, sixteen
// to a line, so a prune test the head decides touches no record): the
// append mutex and the first inline segments, 508 entries, in one cache
// line. The store's levels, n pointers each, hold the later segments.
//
// Publication order. A writer (holding mu) fills slots past n, which no
// reader can see yet, and only then stores the longer n; a slot past the
// last segment is in a new one of twice its size, which the writer links
// (and its level) before it stores the n that reaches into it. Nothing
// is copied or replaced, and entries below a published n never change.
// A reader therefore loads n first, then each segment n covers.
type record struct {
	mu   sync.Mutex
	segs [inline]atomic.Pointer[Entry]
}

const inline, maxSegs = 7, 30 // maxSegs hold any int32 length

// seg returns where the pointer to segment k of v's list lives.
func (s *Store) seg(v, k int) *atomic.Pointer[Entry] {
	if k < inline {
		return &s.lists[v].segs[k]
	}
	return &unsafe.Slice(s.far[k-inline].Load(), len(s.lists))[v]
}

// write appends es to v's list under its mutex, linking a segment at each
// boundary it reaches, and publishes the longer length.
func (s *Store) write(v int, es []Entry) {
	s.lists[v].mu.Lock()
	n := int(s.lens[v].Load())
	for len(es) > 0 {
		k := bits.Len(uint(n/4+1)) - 1 // segment k holds slots 4·2^k-4 on
		off := n + 4 - 4<<k
		if off == 0 {
			if k >= inline && s.far[k-inline].Load() == nil {
				lv := make([]atomic.Pointer[Entry], len(s.lists))
				s.far[k-inline].CompareAndSwap(nil, unsafe.SliceData(lv)) // a writer that loses the race drops its copy
			}
			s.seg(v, k).Store(unsafe.SliceData(make([]Entry, 4<<k)))
		}
		c := copy(unsafe.Slice(s.seg(v, k).Load(), 4<<k)[off:], es)
		n, es = n+c, es[c:]
	}
	s.lens[v].Store(int32(n))
	s.lists[v].mu.Unlock()
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
// The build-time head (UseHead) gives the root at position c of the
// computing sequence, while c is below the head's width K, column c of a
// dense n × K matrix of one-byte cells, so its entries of distance up to
// maxCell cost 1 byte a vertex where a list entry costs 8 and the slack
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
	lens  []atomic.Int32 // published list lengths
	lists []record
	far   [maxSegs - inline]atomic.Pointer[atomic.Pointer[Entry]] // first of each level's n segment pointers past the records'

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
func NewStore(n int) *Store { return &Store{lens: make([]atomic.Int32, n), lists: make([]record, n)} }

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
// block before it hold more than an eighth of their cells. That is a
// 1-byte cell against an 8-byte list entry, so every block but the last
// costs less than the entries it holds. The last, the first one included
// when it opened on trust and is the only one, costs 64 bytes a vertex
// whatever its fill: on a graph whose top roots are sparse, or whose
// distances exceed a cell, that is what the head can cost beyond the
// lists it replaces. Once a block is refused the head stays closed. In a
// parallel build the rule counts the columns whose searches have begun —
// under the static policy a worker can reach the next block well before
// another starts its share of this one — and a column still being filled
// counts what it holds so far, which can only close the head earlier.
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
	return List{s: s, v: v, n: s.lens[v].Load()} // n before the segments: see record
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
	n := int(s.lens[v].Load())
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
		total += int64(s.lens[v].Load())
	}
	if h := s.head.Load(); h != nil {
		for _, blk := range h.blocks {
			total += finite(blk)
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
