package label

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"parapll/internal/graph"
)

// Label is L(v) as a search reads its hub's side of the prune test.
// Store-backed (Store.Label): v's row of the build-time head and Rest,
// its list; Label{Rest: list} is a label without a head, which the
// builders over plain lists pass. Index-backed (Index.Union): v's label
// in an immutable Index and Rest, v's run of later entries over it.
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
// store-backed, a vertex's side is its row in the head's blocks and the
// list handed to Covers; index-backed, its head row, bitmap row and tail,
// read in place, and the run handed to Covers.
type Probe struct {
	blocks [][]atomic.Uint32 // store form: the head's blocks when the hub was read
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
// returns the number of entries and cells it read. The hub's label is
// read now and not again, so later appends to it change no test.
func (p *Probe) Set(hub Label) int {
	for _, h := range p.hubs {
		p.tmp[h] = graph.Inf
	}
	p.blocks, p.x, p.hubs, p.row = nil, hub.x, p.hubs[:0], p.row[:0]
	for _, e := range hub.Rest {
		p.put(e.Hub, e.D)
	}
	if hub.x != nil {
		hub.x.scatter(p, graph.Vertex(hub.v))
	} else if hub.h != nil {
		p.blocks = hub.h.blocks
		for _, blk := range p.blocks {
			cells := blk[hub.v*headBlock:][:headBlock]
			for i := range cells {
				p.row = append(p.row, ^cells[i].Load())
			}
		}
	}
	return len(p.row) + len(p.hubs)
}

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
// (Store.Snapshot) or its run. The head is one pass over two rows, block
// by block in column order — the root order, so the early exit comes
// where a list scan would take it — and the rest a scan against tmp. Each
// element costs one predictable branch: for finite d the 64-bit sum
// decides exactly what t != Inf && AddDist(t, d') <= d decides — an Inf
// operand alone makes the sum at least 2³²-1 > d, and a sum AddDist
// would have saturated is at least 2³²-1 as well.
func (p *Probe) Covers(v graph.Vertex, rest []Entry, d graph.Dist) bool {
	if p.x != nil && p.x.covers(p, v, d) {
		return true
	}
	if d == graph.Inf {
		return p.coversAtInf(v, rest)
	}
	dd := uint64(d)
	for b, blk := range p.blocks {
		// Four cells a step, through array pointers: no bounds checks, and
		// a quarter of the loop's own branches (0.55 against 0.68 ns a cell).
		cells := (*[headBlock]atomic.Uint32)(blk[int(v)*headBlock:])
		r := (*[headBlock]graph.Dist)(p.row[b*headBlock:])
		for c := 0; c < headBlock; c += 4 {
			if uint64(r[c])+uint64(^cells[c].Load()) <= dd {
				return true
			}
			if uint64(r[c+1])+uint64(^cells[c+1].Load()) <= dd {
				return true
			}
			if uint64(r[c+2])+uint64(^cells[c+2].Load()) <= dd {
				return true
			}
			if uint64(r[c+3])+uint64(^cells[c+3].Load()) <= dd {
				return true
			}
		}
	}
	for _, e := range rest {
		if uint64(p.tmp[e.Hub])+uint64(e.D) <= dd {
			return true
		}
	}
	return false
}

// coversAtInf is Covers for d = graph.Inf, where saturated sums count as
// <= Inf: any hub both sides hold covers.
func (p *Probe) coversAtInf(v graph.Vertex, rest []Entry) bool {
	for b, blk := range p.blocks {
		cells := blk[int(v)*headBlock:][:headBlock]
		r := p.row[b*headBlock:][:headBlock]
		for c := range cells {
			if r[c] != graph.Inf && cells[c].Load() != 0 {
				return true
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
func (x *Index) scatter(p *Probe, v graph.Vertex) {
	switch x.w {
	case 1:
		scatter(p, x, &x.a8, v)
	case 2:
		scatter(p, x, &x.a16, v)
	default:
		scatter(p, x, &x.a32, v)
	}
}

func scatter[D distance](p *Probe, x *Index, a *arrays[D], v graph.Vertex) {
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
		p.put(h, graph.Dist(td[j]))
	}
	for _, h := range x.headHubs {
		p.row = append(p.row, p.tmp[h])
	}
	runtime.KeepAlive(x)
}

// covers is the index form's share of Covers: v's head row, bitmap row
// and tail in x, read in place against the hub's side.
func (x *Index) covers(p *Probe, v graph.Vertex, d graph.Dist) bool {
	switch x.w {
	case 1:
		return covers(p, x, &x.a8, v, d)
	case 2:
		return covers(p, x, &x.a16, v, d)
	}
	return covers(p, x, &x.a32, v, d)
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

func covers[D distance](p *Probe, x *Index, a *arrays[D], v graph.Vertex, d graph.Dist) bool {
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
