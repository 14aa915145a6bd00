// Package mmaptest is the mmapkeepalive golden-test corpus: a stand-in
// for label.Index with the structural owner signature (the off tail
// offsets, the headHubs column ids, the midHubs/midBits/midOff bitmap
// tier, plus the mm mapping field) holding the hubs/head/midDists/dists
// arrays of tail hub ids and distances at one of several widths.
package mmaptest

import "runtime"

type Vertex = int32
type Dist = uint32

type mapping struct{ data []byte }

type distance interface{ ~uint8 | ~uint32 }

type hubID interface{ ~uint16 | ~int32 }

type arrays[H hubID, D distance] struct {
	hubs     []H
	head     []D
	midDists []D
	dists    []D
}

type Index struct {
	off      []uint32
	headHubs []Vertex
	midHubs  []Vertex
	midBits  []uint64
	midOff   []uint32
	w        int
	a8       arrays[uint16, uint8]
	a32      arrays[Vertex, Dist]
	mm       *mapping
}

// Label returns aliases into the mapping; the deref of off is pinned.
func (x *Index) Label(v Vertex) ([]Vertex, []Dist) {
	defer runtime.KeepAlive(x)
	lo, hi := x.off[v], x.off[v+1]
	return x.a32.hubs[lo:hi], x.a32.dists[lo:hi]
}

// heapIndex has the array fields but no mm: always heap-backed, exempt.
type heapIndex struct {
	off      []uint32
	headHubs []Vertex
	midHubs  []Vertex
	midBits  []uint64
	midOff   []uint32
}

func heapOK(h *heapIndex) Vertex {
	return h.headHubs[h.off[0]]
}

func deferOK(x *Index) Dist {
	defer runtime.KeepAlive(x)
	return x.a32.dists[0]
}

// --- The tail hub and distance arrays live in a struct the owner
// reaches, one per pair of widths. A pointer to it points into the
// owner's mapping: beside an owner parameter it is an alias of that
// owner, and the pin names the owner; alone it is what the pin names.

func arraysParamOK[H hubID, D distance](x *Index, a *arrays[H, D]) D {
	d := a.dists[0]
	runtime.KeepAlive(x)
	return d
}

func arraysParamBad[H hubID, D distance](x *Index, a *arrays[H, D]) D {
	return a.head[0] // want `dereferences mmap-aliased a.head without runtime.KeepAlive\(x\)`
}

func arraysAloneOK[H hubID, D distance](a *arrays[H, D]) D {
	defer runtime.KeepAlive(a)
	return a.midDists[0]
}

func arraysAloneBad[H hubID, D distance](a *arrays[H, D]) D {
	return a.midDists[0] // want `dereferences mmap-aliased a.midDists without runtime.KeepAlive\(a\)`
}

func arraysLocalBad(x *Index) uint8 {
	a := &x.a8
	return a.dists[0] // want `dereferences mmap-aliased a.dists without runtime.KeepAlive\(x\)`
}

// storeOK: a function that stores into an owner's arrays is building
// it, and a mapping is read-only: that owner is on the heap.
func storeOK[H hubID, D distance](x *Index, a *arrays[H, D], d D) {
	for i := range a.hubs {
		a.hubs[i], a.dists[i] = H(i), d
	}
}

func pinAfterOK(x *Index) uint32 {
	var s uint32
	for i := 0; i < len(x.off); i++ {
		s += x.off[i]
	}
	runtime.KeepAlive(x)
	return s
}

func lenOnlyOK(x *Index) int {
	return len(x.off) + cap(x.a32.dists) // slice headers only: no pin needed
}

func freshOK() Dist {
	x := &Index{off: []uint32{0, 1}, a32: arrays[Vertex, Dist]{hubs: []Vertex{0}, dists: []Dist{7}}}
	return x.a32.dists[0] // just allocated: no finalizer can be registered yet
}

func directBad(x *Index) Dist {
	return x.a32.dists[0] // want `dereferences mmap-aliased x.a32.dists without runtime.KeepAlive\(x\)`
}

func aliasBad(x *Index) Vertex {
	hubs := x.a32.hubs
	return hubs[0] // want `dereferences mmap-aliased hubs without runtime.KeepAlive\(x\)`
}

func labelAliasBad(x *Index, v Vertex) Dist {
	_, dists := x.Label(v)
	var s Dist
	for _, d := range dists { // want `dereferences mmap-aliased dists without runtime.KeepAlive\(x\)`
		s += d
	}
	return s
}

func labelAliasOK(x *Index, v Vertex) Dist {
	defer runtime.KeepAlive(x)
	_, dists := x.Label(v)
	var s Dist
	for _, d := range dists {
		s += d
	}
	return s
}

func wrongOrderBad(x *Index) Dist {
	d := x.a32.dists[0]
	runtime.KeepAlive(x)
	return d + x.a32.dists[1] // want `does not cover the exit`
}

func ignoredOK(x *Index) Dist {
	//parapll:vet-ignore mmapkeepalive caller pins the index for the full call
	return x.a32.dists[0]
}

// --- Merge-kernel-shaped cases: the query hot path slices the owner's
// arrays into plain-slice runs, hands them to an allocation-free kernel,
// and pins once per call (or per chunk) rather than per deref.

// kernel takes plain slices — no owner fields, so derefs inside are
// exempt regardless of what the slices alias. Pinning is the caller's
// contract, exactly like label.mergeRuns.
func kernel(ah []Vertex, ad []Dist, bh []Vertex, bd []Dist) Dist {
	best := Dist(0)
	i, j := 0, 0
	for i < len(ah) && j < len(bh) {
		if ah[i] == bh[j] {
			best += ad[i] + bd[j]
			i++
			j++
		} else if ah[i] < bh[j] {
			i++
		} else {
			j++
		}
	}
	return best
}

// kernelCallOK: slicing the owner's arrays as call arguments is a
// header copy, not a deref; the off derefs are pinned at the exit.
func kernelCallOK(x *Index, s, t Vertex) Dist {
	slo, shi := x.off[s], x.off[s+1]
	tlo, thi := x.off[t], x.off[t+1]
	d := kernel(x.a32.hubs[slo:shi], x.a32.dists[slo:shi], x.a32.hubs[tlo:thi], x.a32.dists[tlo:thi])
	runtime.KeepAlive(x)
	return d
}

// kernelCallBad: same shape but the pin is missing — the off derefs
// feeding the kernel must still be covered.
func kernelCallBad(x *Index, s, t Vertex) Dist {
	slo, shi := x.off[s], x.off[s+1] // want `dereferences mmap-aliased x.off without runtime.KeepAlive`
	return kernel(x.a32.hubs[slo:shi], x.a32.dists[slo:shi], x.a32.hubs[:0], x.a32.dists[:0])
}

// gallopBad: a binary-probe loop over the owner's hub array — the
// merge-kernel access pattern written directly against x — still needs
// the pin.
func gallopBad(x *Index, target Vertex) int {
	lo, hi := 0, len(x.a32.hubs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.a32.hubs[mid] < target { // want `dereferences mmap-aliased x.a32.hubs without runtime.KeepAlive`
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// chunkPinOK: the batch shape — many pair derefs inside the chunk loop,
// one pin after the last deref, amortized per chunk instead of per pair.
func chunkPinOK(x *Index, pairs [][2]Vertex, out []Dist) {
	for i, p := range pairs {
		slo, shi := x.off[p[0]], x.off[p[0]+1]
		tlo, thi := x.off[p[1]], x.off[p[1]+1]
		out[i] = kernel(x.a32.hubs[slo:shi], x.a32.dists[slo:shi], x.a32.hubs[tlo:thi], x.a32.dists[tlo:thi])
	}
	runtime.KeepAlive(x)
}

// --- The one generic kernel: label.merge is a single function
// specialised by a zero-size mode type, fed by the inlinable tail ramp,
// a function of the owner and its distance arrays.
// The ramp pins its own offset reads; each instantiation's caller must
// still pin across the kernel's reads of the returned runs.

type distOnly [0]struct{}

func merge[M ~[0]struct{} | ~[1]struct{}](ah []Vertex, ad []Dist, bh []Vertex, bd []Dist) Dist {
	var m M
	return kernel(ah, ad, bh, bd) + Dist(len(m))
}

func tail(x *Index, a *arrays[Vertex, Dist], v Vertex) ([]Vertex, []Dist) {
	lo, hi := x.off[v], x.off[v+1]
	runtime.KeepAlive(x)
	return a.hubs[lo:hi], a.dists[lo:hi]
}

func genericKernelOK(x *Index, s, t Vertex) Dist {
	ah, ad := tail(x, &x.a32, s)
	bh, bd := tail(x, &x.a32, t)
	d := merge[distOnly](ah, ad, bh, bd)
	runtime.KeepAlive(x)
	return d
}

func genericKernelBad(x *Index, a *arrays[Vertex, Dist], s, t Vertex) Dist {
	ah, ad := tail(x, a, s)
	bh, bd := tail(x, a, t)
	return merge[distOnly](ah, ad, bh, bd) // want `dereferences mmap-aliased bd without runtime.KeepAlive\(x\)`
}

// --- The dense head: row cuts K contiguous distances out of the n x K
// matrix without reading one (slicing is a header copy), so it pins
// nothing itself; whoever reads the row — the scan kernel's caller, or a
// loop over it — must, exactly as for a tail run.

func row(x *Index, a *arrays[Vertex, Dist], v Vertex) []Dist {
	k := len(x.headHubs)
	return a.head[int(v)*k:][:k]
}

func rowMin(a, b []Dist) Dist {
	best := ^Dist(0)
	for c, d := range a {
		best = min(best, d+b[c])
	}
	return best
}

func headScanOK(x *Index, s, t Vertex) Dist {
	d := rowMin(row(x, &x.a32, s), row(x, &x.a32, t))
	hs := row(x, &x.a32, s)
	d += rowMin(hs, row(x, &x.a32, t))
	runtime.KeepAlive(x)
	return d
}

// headRowBad: an unpinned read of a mapped head row is a use after
// munmap waiting for a GC cycle.
func headRowBad(x *Index, v Vertex) int {
	size := 0
	for _, d := range row(x, &x.a32, v) { // want `dereferences mmap-aliased row\(x, &x.a32, v\) without runtime.KeepAlive\(x\)`
		if d != ^Dist(0) {
			size++
		}
	}
	return size
}

func headRowAliasBad(x *Index, s, t Vertex) Dist {
	hs, ht := row(x, &x.a32, s), row(x, &x.a32, t)
	return rowMin(hs, ht) // want `dereferences mmap-aliased ht without runtime.KeepAlive\(x\)`
}

func headHubsBad(x *Index, col int) Vertex {
	return x.headHubs[col] // want `dereferences mmap-aliased x.headHubs without runtime.KeepAlive`
}

func headDirectBad(x *Index) Dist {
	return x.a32.head[0] // want `dereferences mmap-aliased x.a32.head without runtime.KeepAlive`
}

// --- The bitmap tier: mid cuts a vertex's W bitmap words and the packed
// distances of its set bits. It reads two offsets, which it pins itself;
// the words and the run are read by the caller's kernel, which pins
// after its last read of either.

func mid(x *Index, a *arrays[Vertex, Dist], v Vertex) ([]uint64, []Dist) {
	w := (len(x.midHubs) + 63) >> 6
	lo, hi := x.midOff[v], x.midOff[v+1]
	runtime.KeepAlive(x)
	return x.midBits[int(v)*w:][:w], a.midDists[lo:hi]
}

func midMin(ab []uint64, ad []Dist, bb []uint64, bd []Dist) Dist {
	best := ^Dist(0)
	for w, a := range ab {
		if a&bb[w] != 0 {
			best = min(best, ad[0]+bd[0])
		}
	}
	return best
}

func midScanOK(x *Index, s, t Vertex) Dist {
	sb, sd := mid(x, &x.a32, s)
	tb, td := mid(x, &x.a32, t)
	d := midMin(sb, sd, tb, td)
	runtime.KeepAlive(x)
	return d
}

// midRowBad: a range over an un-pinned bit row.
func midRowBad(x *Index, v Vertex) int {
	words, _ := mid(x, &x.a32, v)
	set := 0
	for _, word := range words { // want `dereferences mmap-aliased words without runtime.KeepAlive\(x\)`
		if word != 0 {
			set++
		}
	}
	return set
}

// midRunAfterPinBad: the packed run is read after the last use of x —
// the pin covers the bit rows and not the distance that follows it.
func midRunAfterPinBad(x *Index, s, t Vertex) Dist {
	sb, sd := mid(x, &x.a32, s)
	tb, _ := mid(x, &x.a32, t)
	hit := sb[0]&tb[0] != 0
	runtime.KeepAlive(x)
	if hit {
		return sd[0] // want `does not cover the exit`
	}
	return 0
}

// --- An owner reached through a struct field: label.Probe keeps the
// index it scattered a label from and reads the mapped tiers in place
// at every later test. The pin names the field, whose root is the holder.

type probe struct {
	x   *Index
	tmp []Dist
}

func (p *probe) fieldOwnerOK(v Vertex) bool {
	defer runtime.KeepAlive(p.x)
	th, td := tail(p.x, &p.x.a32, v)
	for j, h := range th {
		if p.tmp[h]+td[j] == 0 {
			return true
		}
	}
	return false
}

func (p *probe) fieldOwnerBad(v Vertex) bool {
	th, td := tail(p.x, &p.x.a32, v)
	for j, h := range th {
		if p.tmp[h]+td[j] == 0 { // want `dereferences mmap-aliased td without runtime.KeepAlive\(p\)`
			return true
		}
	}
	return false
}

func (p *probe) fieldDirectBad(c int) Vertex {
	return p.x.headHubs[c] // want `dereferences mmap-aliased p.x.headHubs without runtime.KeepAlive\(p\)`
}

func midHubsBad(x *Index, col int) Vertex {
	return x.midHubs[col] // want `dereferences mmap-aliased x.midHubs without runtime.KeepAlive`
}

func midBitsDirectBad(x *Index, v Vertex) uint64 {
	return x.midBits[v] // want `dereferences mmap-aliased x.midBits without runtime.KeepAlive`
}

// --- The kernels are methods of the arrays, called through an interface
// at the index's widths: the receiver points into the owner parameter
// beside it, as an arrays parameter does. The 2-byte tail hub ids are
// the array most queries read.

func (a *arrays[H, D]) receiverOK(x *Index, i int) H {
	defer runtime.KeepAlive(x)
	return a.hubs[i]
}

func (a *arrays[H, D]) receiverHubsBad(x *Index, i int) H {
	return a.hubs[i] // want `dereferences mmap-aliased a.hubs without runtime.KeepAlive\(x\)`
}

func narrowHubsBad(x *Index, i int) uint16 {
	return x.a8.hubs[i] // want `dereferences mmap-aliased x.a8.hubs without runtime.KeepAlive\(x\)`
}

func narrowTailBad(x *Index, v Vertex) int {
	lo, hi := x.off[v], x.off[v+1]
	runtime.KeepAlive(x)
	n := 0
	for _, h := range x.a8.hubs[lo:hi] { // want `does not cover the exit`
		n += int(h)
	}
	return n
}
