package label

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"parapll/internal/graph"
)

// Label is L(v) as a search reads its hub's side of the prune test.
// Store-backed (Store.Label): v's row of the build-time head's cells and
// Rest, its list, which may hold entries of head hubs too;
// Label{Rest: list} is a label without a head, which the builders over
// plain lists pass. Index-backed (Index.Union): v's label in an
// immutable Index and Rest, v's run of later entries over it.
type Label struct {
	h    *head  // store form: the head when the label was taken; nil without one
	x    *Index // index form: the index holding v's base label
	v    int
	Rest []Entry
}

// Union returns L(v) as the living graph's searches read it: v's label
// in x with run over it, each run entry below any entry x holds for its
// hub. Probe.Set reads the run and does not retain it.
func (x *Index) Union(v graph.Vertex, run []Entry) Label {
	return Label{x: x, v: int(v), Rest: run}
}

// Probe is one search's side of the PLL prune test, for the hub it
// searches from: the hub's distances at the head's columns in row, and
// its entries scattered by hub id (tmp[h] = d(hub, h), graph.Inf
// elsewhere), so that each test is one pass over a vertex's head row and
// one scan of the rest of its label. pll.Searcher owns one, core's
// batched engine one per batch slot. Its two forms are those of Label:
// store-backed, a vertex's side is its row of cells in the head's blocks
// and the list handed to Covers, and the hub's row is also kept as
// lanes, two words of four 16-bit bounds for each word of cells;
// index-backed, its head row, bitmap row and tail, read in place, and
// the run handed to Covers.
type Probe struct {
	blocks [][]atomic.Uint64 // store form: the head's blocks when the hub was read
	lanes  [][2]uint64       // store form: per head word, the row's bounds (headCovers)
	x      *Index            // index form: the index the hub's label was read from
	row    []graph.Dist      // the hub's distances at the head's columns
	tmp    []graph.Dist
	hubs   []graph.Vertex // scattered into tmp, for the next Set
}

// NewProbe returns a probe for labels over vertices [0,n).
func NewProbe(n int) *Probe {
	p := &Probe{tmp: make([]graph.Dist, n)}
	for i := range p.tmp {
		p.tmp[i] = graph.Inf
	}
	return p
}

// Set makes hub the probe's side of every test until the next Set and
// returns the number of entries and cells it read: store-backed, the
// head's cells (one per column) and the list, each once; index-backed,
// the head's columns and every entry scattered. The hub's label is read
// now and not again, so later appends to it change no test.
func (p *Probe) Set(hub Label) int {
	for _, h := range p.hubs {
		p.tmp[h] = graph.Inf
	}
	p.blocks, p.x, p.hubs, p.row, p.lanes = nil, hub.x, p.hubs[:0], p.row[:0], p.lanes[:0]
	for _, e := range hub.Rest {
		p.put(e.Hub, e.D)
	}
	if hub.x != nil {
		hub.x.a.scatter(p, hub.x, graph.Vertex(hub.v))
		return len(p.row) + len(p.hubs)
	}
	if hub.h != nil {
		hub.h.scatter(p, hub.v, hub.Rest)
	}
	return len(p.row) + len(hub.Rest)
}

// scatter is Set's read of L(v) from the head h, after its list rest:
// v's cells into p.row, each lowered by any entry of rest for its hub,
// and into p.tmp. A head hub's entry can sit in either place — a
// distance above maxCell is a list entry — so each side's cells must
// meet the other's list entries: the hub's list through row, the
// vertex's list through tmp.
func (h *head) scatter(p *Probe, v int, rest []Entry) {
	p.blocks = h.blocks
	for b := range h.blocks {
		words := h.row(b, v)
		for i := range words {
			x := words[i].Load()
			for j := 0; j < 64; j += 8 {
				d := graph.Inf
				if x>>j&0xFF != 0 {
					d = cellDist(x >> j)
					p.put(h.order[b*headBlock+i*8+j/8], d)
				}
				p.row = append(p.row, d)
			}
		}
	}
	for _, e := range rest {
		if c := h.column(e.Hub); c >= 0 {
			p.row[c] = min(p.row[c], e.D)
		}
	}
	for c := 0; c < len(p.row); c += 8 {
		var lo, hi uint64
		for j := 6; j >= 0; j -= 2 {
			lo = lo<<16 | bound(p.row[c+j])
			hi = hi<<16 | bound(p.row[c+j+1])
		}
		p.lanes = append(p.lanes, [2]uint64{lo, hi})
	}
}

// Lanes of the head test: a head word's cells 0, 2, 4, 6 (or, shifted
// right by 8, 1, 3, 5, 7), each in the low byte of a 16-bit lane; the
// lanes' top bits; one in each lane; and the largest d the lane test
// takes.
const (
	lanes16  = 0x00FF00FF00FF00FF
	top16    = 0x8000800080008000
	ones16   = 0x0001000100010001
	maxLaneD = 0x3FFF
)

// bound is a hub distance r as headCovers' lanes compare it: r + 255,
// capped at 0x7FFF. A cell x (the complement of u's distance d') covers
// d when x + d >= r + 255, that is r + d' <= d; a capped bound is never
// reached, and it need not be, since then r > d.
func bound(r graph.Dist) uint64 { return min(uint64(r)+255, 0x7FFF) }

// put scatters the hub's entry (h, d), where the smaller distance stays.
// The index into tmp stays bounds-checked: a hub id read from a damaged
// file panics there instead of writing outside it.
func (p *Probe) put(h graph.Vertex, d graph.Dist) {
	if d < p.tmp[h] {
		p.tmp[h] = d
	}
	p.hubs = append(p.hubs, h)
}

// Width returns the number of head cells a test reads, at most.
func (p *Probe) Width() int { return len(p.row) }

// Covers is the PLL prune test: whether QUERY(hub, v) <= d over the
// labels as read — the hub's at the last Set, and of L(v) its head row
// (and, index-backed, its bitmap row and tail) and rest, its list
// (Store.Snapshot) or its run. The head is one pass over v's cells,
// block by block in column order — the root order, so the early exit
// comes where a list scan would take it — and the rest a scan against
// tmp. Each list entry costs one predictable branch: for finite d the
// 64-bit sum decides exactly what t != Inf && AddDist(t, d') <= d
// decides — an Inf operand alone makes the sum at least 2³²-1 > d, and a
// sum AddDist would have saturated is at least 2³²-1 as well.
func (p *Probe) Covers(v graph.Vertex, rest []Entry, d graph.Dist) bool {
	if p.x != nil && p.x.a.covers(p, p.x, v, d) {
		return true
	}
	if d == graph.Inf {
		return p.coversAtInf(v, rest)
	}
	if p.blocks != nil && p.headCovers(int(v), d) {
		return true
	}
	dd := uint64(d)
	for _, e := range rest {
		if uint64(p.tmp[e.Hub])+uint64(e.D) <= dd {
			return true
		}
	}
	return false
}

// headCovers is the store form's head share of Covers for finite d: a
// word of v's cells at a time, skipped when it holds none. Up to
// maxLaneD, each half of the word is four 16-bit lanes, tested at once
// against the hub's bounds: with x a cell and R its bound, lane
// ((x + d) | 0x8000) - R has its top bit set iff x + d >= R, and
// x + 0x7FFF iff the cell is not absent. No lane carries or borrows into
// its neighbour: x + d <= 255 + 0x3FFF < 0x8000 and R <= 0x7FFF. Above
// maxLaneD the cells are tested one by one.
func (p *Probe) headCovers(v int, d graph.Dist) bool {
	if d > maxLaneD {
		return p.headCoversScalar(v, uint64(d))
	}
	dd := uint64(d) * ones16
	for b, blk := range p.blocks {
		words := (*[headWords]atomic.Uint64)(blk[v*headWords:])
		for i, k := range (*[headWords][2]uint64)(p.lanes[b*headWords:]) {
			w := words[i].Load()
			if w == 0 {
				continue
			}
			lo, hi := w&lanes16, w>>8&lanes16
			lo = (((lo + dd) | top16) - k[0]) & (lo + 0x7FFF*ones16)
			hi = (((hi + dd) | top16) - k[1]) & (hi + 0x7FFF*ones16)
			if (lo|hi)&top16 != 0 {
				return true
			}
		}
	}
	return false
}

// headCoversScalar is headCovers above maxLaneD, a held cell at a time.
func (p *Probe) headCoversScalar(v int, dd uint64) bool {
	for b, blk := range p.blocks {
		words := (*[headWords]atomic.Uint64)(blk[v*headWords:])
		row := (*[headBlock]graph.Dist)(p.row[b*headBlock:])
		for i := range words {
			w := words[i].Load()
			for m := held(w); m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m) &^ 7
				if uint64(row[i*8+j/8])+uint64(cellDist(w>>j)) <= dd {
					return true
				}
			}
		}
	}
	return false
}

// coversAtInf is Covers for d = graph.Inf, where saturated sums count as
// <= Inf: any hub both sides hold covers.
func (p *Probe) coversAtInf(v graph.Vertex, rest []Entry) bool {
	for b, blk := range p.blocks {
		words := (*[headWords]atomic.Uint64)(blk[int(v)*headWords:])
		row := (*[headBlock]graph.Dist)(p.row[b*headBlock:])
		for i := range words {
			for m := held(words[i].Load()); m != 0; m &= m - 1 {
				if row[i*8+bits.TrailingZeros64(m)/8] != graph.Inf {
					return true
				}
			}
		}
	}
	for _, e := range rest {
		if p.tmp[e.Hub] != graph.Inf {
			return true
		}
	}
	return false
}

// scatter is Set's read of L(v) from x: every entry into p.tmp, then the
// hub's distances at x's head columns, run entries included, into p.row.
func (a *arrays[H, D]) scatter(p *Probe, x *Index, v graph.Vertex) {
	for c, d := range row(x, a, v) {
		if d != ^D(0) {
			p.put(x.headHubs[c], graph.Dist(d))
		}
	}
	words, md := mid(x, a, v)
	rank := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			p.put(x.midHubs[w<<6+bits.TrailingZeros64(word)], graph.Dist(md[rank]))
			rank++
		}
	}
	th, td := tail(x, a, v)
	for j, h := range th {
		p.put(graph.Vertex(h), graph.Dist(td[j]))
	}
	for _, h := range x.headHubs {
		p.row = append(p.row, p.tmp[h])
	}
	runtime.KeepAlive(x)
}

// absent is what an entry one side lacks adds to a sum in covers: more
// than any two distances, so one comparison against a bound decides
// every d, graph.Inf included.
const absent = 1 << 40

// addend widens a distance for covers' sums, an empty slot — the width's
// all-ones value, graph.Inf in tmp and row — to absent: at 1 and 2 bytes
// that value summed as a distance would cover any d above it.
func addend[D distance](d D) uint64 {
	s := uint64(d)
	if d == ^D(0) {
		s = absent
	}
	return s
}

// covers is the index form's share of Covers: v's head row, bitmap row
// and tail in x, read in place against the hub's side.
func (a *arrays[H, D]) covers(p *Probe, x *Index, v graph.Vertex, d graph.Dist) bool {
	defer runtime.KeepAlive(x)
	bound := uint64(d)
	if d == graph.Inf {
		bound = absent - 1 // any hub both sides hold
	}
	hr := row(x, a, v)
	for c, t := range p.row[:len(hr)] {
		if addend(t)+addend(hr[c]) <= bound {
			return true
		}
	}
	words, md := mid(x, a, v)
	rank := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			if addend(p.tmp[x.midHubs[w<<6+bits.TrailingZeros64(word)]])+uint64(md[rank]) <= bound {
				return true
			}
			rank++
		}
	}
	th, td := tail(x, a, v)
	td = td[:len(th)]
	for j, h := range th {
		if addend(p.tmp[h])+uint64(td[j]) <= bound {
			return true
		}
	}
	return false
}
