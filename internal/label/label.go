// Package label implements the 2-hop-cover distance labels at the heart of
// PLL and ParaPLL: a concurrent Store used while indexing and an
// immutable, query-optimized Index produced when indexing finishes.
//
// The Store keeps L(v) in two parts. The first roots of the computing
// sequence — PLL's top hubs, each in most labels — may own the columns of
// a dense head, written by one atomic compare-and-swap per settle
// (UseHead). Every other entry goes to v's list: lock-free reads,
// per-vertex mutex-guarded appends — the "semaphore" of the paper's
// Algorithm 2.
//
// A label entry (h, d) in L(v) asserts dist(h, v) = d for hub vertex h
// (subject to the parallel-construction caveat that redundant entries may
// record an overestimate for pairs already covered by a better hub; the
// QUERY minimum makes those harmless, per the paper's Proposition 1).
package label

import (
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

// list is one vertex's label list: the append mutex, the published
// length and the backing array side by side, so a prune query's
// Snapshot touches one cache line before the entries themselves.
//
// Publication order. A writer (holding mu) fills slots past n — slots no
// reader can see yet — and only then stores the longer n; when the array
// is full it first copies the entries into a larger one and stores arr,
// then stores n. Arrays are only ever replaced by longer ones carrying
// the same prefix, and entries below a published n never change. A
// reader therefore loads n first and arr second: whichever array it
// then sees was published no earlier than the one n was published
// against, so it holds at least n final entries. (Loading arr first
// could pair an outgrown array with a newer, longer n.)
type list struct {
	mu  sync.Mutex
	n   atomic.Int64          // published length
	arr atomic.Pointer[Entry] // first slot of the backing array
	cap int                   // slots in the backing array; guarded by mu
}

// reserve returns the backing array, first replaced by one of newCap
// slots if it cannot take extra more entries after the n it holds. The
// caller holds mu.
func (l *list) reserve(n, extra, newCap int) []Entry {
	old := unsafe.Slice(l.arr.Load(), l.cap)
	if n+extra <= l.cap {
		return old
	}
	next := make([]Entry, newCap)
	copy(next, old[:n])
	l.arr.Store(unsafe.SliceData(next))
	l.cap = len(next)
	return next
}

// headBlock is the number of columns a block of the build-time head
// holds: 256 bytes, four cache lines, of a vertex's row.
const headBlock = 64

// Store is the concurrent label set used during index construction.
//
// Concurrency contract: any number of goroutines may call Snapshot, Label
// and Len concurrently with appends; Append on the *same* vertex
// serializes on a per-vertex mutex, or on nothing for a head cell.
// Readers never block writers and vice versa.
//
// The build-time head (UseHead) gives the root at position c of the
// computing sequence, while c is below the head's width K, column c of a
// dense n × K matrix of distances, so its entries cost 4 bytes a vertex
// where a list entry costs 8 and the slack of a grown array. The matrix
// is a sequence of blocks, each an n × headBlock row-major array: cell
// (v, c) is blocks[c/headBlock][v*headBlock + c%headBlock]. A cell holds
// the complement of its distance, so the zeros a new block is made of
// read as graph.Inf and opening a block writes nothing. A cell only ever
// decreases, by compare-and-swap; one not yet written reads Inf, which is
// delayed visibility and by Proposition 1 only weakens pruning. Blocks
// are published copy-on-write (head), so a reader's blocks stay valid.
type Store struct {
	lists []list

	// order is the computing sequence the head follows and rank its
	// inverse; both are nil in a store without a head. begun[b] counts the
	// roots of block b's positions whose searches have begun.
	order []graph.Vertex
	rank  []int32
	begun []atomic.Int32
	head  atomic.Pointer[head]

	mu sync.Mutex // serializes opening blocks
}

// head is one published state of the build-time head.
type head struct {
	blocks [][]atomic.Uint32
	closed bool // a block was refused: no further one opens
}

// NewStore returns an empty store for vertices [0,n), without a head.
func NewStore(n int) *Store { return &Store{lists: make([]list, n)} }

// NumVertices returns the number of vertices the store covers.
func (s *Store) NumVertices() int { return len(s.lists) }

// UseHead gives the store a build-time head for a build that searches
// its roots in the order ord, a permutation of the vertices, and calls
// BeginRoot before each search. Call it before the first Append.
func (s *Store) UseHead(ord []graph.Vertex) {
	s.order = ord
	s.rank = make([]int32, len(ord))
	for i, r := range ord {
		s.rank[r] = int32(i)
	}
	s.begun = make([]atomic.Int32, (len(ord)+headBlock-1)/headBlock)
	s.head.Store(&head{})
}

// BeginRoot is called before the search from the root at position pos of
// the order starts, so that the root's column, if it gets one, exists
// before its first settle. Columns open in root order, a block at a time:
// the first block on trust, each later one only while the columns of the
// block before it hold more than half their cells. That is finalize's
// head rule — a 4-byte cell against an 8-byte entry — so every block but
// the last costs less than the entries it holds. The last, the first one
// included when it opened on trust and is the only one, costs 256 bytes
// a vertex whatever its fill: on a graph whose top roots are sparse, that
// is what the head can cost beyond the lists it replaces. Once a block is
// refused the head stays closed. In a parallel build the rule counts the
// columns whose searches have begun — under the static policy a worker
// can reach the next block well before another starts its share of this
// one — and a column still being filled counts what it holds so far,
// which can only close the head earlier.
func (s *Store) BeginRoot(pos int) {
	if s.begun == nil {
		return
	}
	s.begun[pos/headBlock].Add(1)
	for {
		h := s.head.Load()
		if h == nil || h.closed || pos < len(h.blocks)*headBlock {
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
	next := &head{blocks: h.blocks}
	if k > 0 {
		next.closed = 2*finite(h.blocks[k-1]) <= int64(n)*int64(s.begun[k-1].Load())
	}
	if !next.closed {
		next.blocks = append(slices.Clip(h.blocks), make([]atomic.Uint32, n*headBlock))
	}
	s.head.Store(next)
}

// finite counts the cells of a block that hold a distance.
func finite(blk []atomic.Uint32) int64 {
	var held int64
	for i := range blk {
		if blk[i].Load() != 0 {
			held++
		}
	}
	return held
}

// Head returns the number of columns the build-time head opened and the
// share of their cells that hold an entry (0, 0 without a head).
func (s *Store) Head() (k int, fill float64) {
	h := s.head.Load()
	if h == nil || len(h.blocks) == 0 {
		return 0, 0
	}
	var held int64
	for _, blk := range h.blocks {
		held += finite(blk)
	}
	k = min(len(h.blocks)*headBlock, len(s.lists))
	return k, float64(held) / (float64(k) * float64(len(s.lists)))
}

// cell returns the head cell of hub's entry in L(v), nil when hub has no
// column.
func (s *Store) cell(v, hub graph.Vertex) *atomic.Uint32 {
	if s.rank == nil {
		return nil
	}
	c, h := int(s.rank[hub]), s.head.Load()
	if c >= len(h.blocks)*headBlock {
		return nil
	}
	return &h.blocks[c/headBlock][int(v)*headBlock+c%headBlock]
}

// Append adds entry (hub, d) to L(v): into hub's head cell if it has one,
// where the smaller distance stays, else at the end of v's list, which is
// neither sorted nor deduplicated (the final Index pass does both). It
// allocates only when L(v)'s list is full.
func (s *Store) Append(v graph.Vertex, hub graph.Vertex, d graph.Dist) {
	if c := s.cell(v, hub); c != nil {
		// Until the cell holds at most d: a lost race means another writer
		// stored a distance, which may already be the smaller one.
		for old := c.Load(); ^old > d && !c.CompareAndSwap(old, ^d); old = c.Load() {
		}
		return
	}
	l := &s.lists[v]
	l.mu.Lock()
	n := int(l.n.Load())
	l.reserve(n, 1, 2*n+4)[n] = Entry{Hub: hub, D: d}
	l.n.Store(int64(n + 1))
	l.mu.Unlock()
}

// Snapshot returns v's list: the entries of L(v) outside the head, in the
// order they arrived. The result is immutable: concurrent appends publish
// longer snapshots without disturbing this one.
func (s *Store) Snapshot(v graph.Vertex) []Entry {
	l := &s.lists[v]
	n := l.n.Load() // before arr: see list
	return unsafe.Slice(l.arr.Load(), n)
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
		for b, blk := range h.blocks {
			cells := blk[int(v)*headBlock:][:headBlock]
			for i := range cells {
				if d := ^cells[i].Load(); d != graph.Inf {
					dst = append(dst, Entry{Hub: s.order[b*headBlock+i], D: d})
				}
			}
		}
	}
	return append(dst, s.Snapshot(v)...)
}

// Len returns the current number of entries in L(v).
func (s *Store) Len(v graph.Vertex) int {
	n := int(s.lists[v].n.Load())
	if h := s.head.Load(); h != nil {
		for _, blk := range h.blocks {
			n += int(finite(blk[int(v)*headBlock:][:headBlock]))
		}
	}
	return n
}

// TotalEntries returns the total number of entries across all vertices,
// summed from the list lengths and the head's cells (appends share no
// counter).
func (s *Store) TotalEntries() int64 {
	var total int64
	for v := range s.lists {
		total += s.lists[v].n.Load()
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
	l := &s.lists[v]
	l.mu.Lock()
	n := int(l.n.Load())
	copy(l.reserve(n, len(entries), 2*(n+len(entries)))[n:], entries)
	l.n.Store(int64(n + len(entries)))
	l.mu.Unlock()
}
