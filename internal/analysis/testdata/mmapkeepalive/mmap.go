// Package mmaptest is the mmapkeepalive golden-test corpus: a stand-in
// for label.Index with the structural owner signature (the off/hubs/dists
// tail arrays, the headHubs/head matrix, the midHubs/midBits/midOff/
// midDists bitmap tier, plus the mm mapping field).
package mmaptest

import "runtime"

type Vertex = int32
type Dist = uint32

type mapping struct{ data []byte }

type Index struct {
	off      []int64
	hubs     []Vertex
	dists    []Dist
	headHubs []Vertex
	head     []Dist
	midHubs  []Vertex
	midBits  []uint64
	midOff   []int64
	midDists []Dist
	mm       *mapping
}

// Label returns aliases into the mapping; the deref of off is pinned.
func (x *Index) Label(v Vertex) ([]Vertex, []Dist) {
	defer runtime.KeepAlive(x)
	lo, hi := x.off[v], x.off[v+1]
	return x.hubs[lo:hi], x.dists[lo:hi]
}

// heapIndex has the array fields but no mm: always heap-backed, exempt.
type heapIndex struct {
	off      []int64
	hubs     []Vertex
	dists    []Dist
	headHubs []Vertex
	head     []Dist
	midHubs  []Vertex
	midBits  []uint64
	midOff   []int64
	midDists []Dist
}

func heapOK(h *heapIndex) Dist {
	return h.dists[0]
}

func deferOK(x *Index) Dist {
	defer runtime.KeepAlive(x)
	return x.dists[0]
}

func pinAfterOK(x *Index) int64 {
	var s int64
	for i := 0; i < len(x.off); i++ {
		s += x.off[i]
	}
	runtime.KeepAlive(x)
	return s
}

func lenOnlyOK(x *Index) int {
	return len(x.off) + cap(x.dists) // slice headers only: no pin needed
}

func freshOK() Dist {
	x := &Index{off: []int64{0, 1}, hubs: []Vertex{0}, dists: []Dist{7}}
	return x.dists[0] // just allocated: no finalizer can be registered yet
}

func directBad(x *Index) Dist {
	return x.dists[0] // want `dereferences mmap-aliased x.dists without runtime.KeepAlive`
}

func aliasBad(x *Index) Vertex {
	hubs := x.hubs
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
	d := x.dists[0]
	runtime.KeepAlive(x)
	return d + x.dists[1] // want `does not cover the exit`
}

func ignoredOK(x *Index) Dist {
	//parapll:vet-ignore mmapkeepalive caller pins the index for the full call
	return x.dists[0]
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
	d := kernel(x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi])
	runtime.KeepAlive(x)
	return d
}

// kernelCallBad: same shape but the pin is missing — the off derefs
// feeding the kernel must still be covered.
func kernelCallBad(x *Index, s, t Vertex) Dist {
	slo, shi := x.off[s], x.off[s+1] // want `dereferences mmap-aliased x.off without runtime.KeepAlive`
	return kernel(x.hubs[slo:shi], x.dists[slo:shi], x.hubs[:0], x.dists[:0])
}

// gallopBad: a binary-probe loop over the owner's hub array — the
// merge-kernel access pattern written directly against x — still needs
// the pin.
func gallopBad(x *Index, target Vertex) int {
	lo, hi := 0, len(x.hubs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.hubs[mid] < target { // want `dereferences mmap-aliased x.hubs without runtime.KeepAlive`
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
		out[i] = kernel(x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi])
	}
	runtime.KeepAlive(x)
}

// --- The one generic kernel: label.merge is a single function
// specialised by a zero-size mode type, fed by the inlinable tail ramp.
// The ramp pins its own offset reads; each instantiation's caller must
// still pin across the kernel's reads of the returned runs.

type distOnly [0]struct{}

func merge[M ~[0]struct{} | ~[1]struct{}](ah []Vertex, ad []Dist, bh []Vertex, bd []Dist) Dist {
	var m M
	return kernel(ah, ad, bh, bd) + Dist(len(m))
}

func (x *Index) tail(v Vertex) ([]Vertex, []Dist) {
	lo, hi := x.off[v], x.off[v+1]
	runtime.KeepAlive(x)
	return x.hubs[lo:hi], x.dists[lo:hi]
}

func genericKernelOK(x *Index, s, t Vertex) Dist {
	ah, ad := x.tail(s)
	bh, bd := x.tail(t)
	d := merge[distOnly](ah, ad, bh, bd)
	runtime.KeepAlive(x)
	return d
}

func genericKernelBad(x *Index, s, t Vertex) Dist {
	ah, ad := x.tail(s)
	bh, bd := x.tail(t)
	return merge[distOnly](ah, ad, bh, bd) // want `dereferences mmap-aliased bd without runtime.KeepAlive\(x\)`
}

// --- The dense head: row cuts K contiguous distances out of the n x K
// matrix without reading one (slicing is a header copy), so it pins
// nothing itself; whoever reads the row — the scan kernel's caller, or a
// loop over it — must, exactly as for a tail run.

func (x *Index) row(v Vertex) []Dist {
	k := len(x.headHubs)
	return x.head[int(v)*k:][:k]
}

func rowMin(a, b []Dist) Dist {
	best := ^Dist(0)
	for c, d := range a {
		best = min(best, d+b[c])
	}
	return best
}

func headScanOK(x *Index, s, t Vertex) Dist {
	d := rowMin(x.row(s), x.row(t))
	hs := x.row(s)
	d += rowMin(hs, x.row(t))
	runtime.KeepAlive(x)
	return d
}

// headRowBad: an unpinned read of a mapped head row is a use after
// munmap waiting for a GC cycle.
func headRowBad(x *Index, v Vertex) int {
	size := 0
	for _, d := range x.row(v) { // want `dereferences mmap-aliased x.row\(v\) without runtime.KeepAlive\(x\)`
		if d != ^Dist(0) {
			size++
		}
	}
	return size
}

func headRowAliasBad(x *Index, s, t Vertex) Dist {
	hs, ht := x.row(s), x.row(t)
	return rowMin(hs, ht) // want `dereferences mmap-aliased ht without runtime.KeepAlive\(x\)`
}

func headHubsBad(x *Index, col int) Vertex {
	return x.headHubs[col] // want `dereferences mmap-aliased x.headHubs without runtime.KeepAlive`
}

func headDirectBad(x *Index) Dist {
	return x.head[0] // want `dereferences mmap-aliased x.head without runtime.KeepAlive`
}

// --- The bitmap tier: mid cuts a vertex's W bitmap words and the packed
// distances of its set bits. It reads two offsets, which it pins itself;
// the words and the run are read by the caller's kernel, which pins
// after its last read of either.

func (x *Index) mid(v Vertex) ([]uint64, []Dist) {
	w := (len(x.midHubs) + 63) >> 6
	lo, hi := x.midOff[v], x.midOff[v+1]
	runtime.KeepAlive(x)
	return x.midBits[int(v)*w:][:w], x.midDists[lo:hi]
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
	sb, sd := x.mid(s)
	tb, td := x.mid(t)
	d := midMin(sb, sd, tb, td)
	runtime.KeepAlive(x)
	return d
}

// midRowBad: a range over an un-pinned bit row.
func midRowBad(x *Index, v Vertex) int {
	words, _ := x.mid(v)
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
	sb, sd := x.mid(s)
	tb, _ := x.mid(t)
	hit := sb[0]&tb[0] != 0
	runtime.KeepAlive(x)
	if hit {
		return sd[0] // want `does not cover the exit`
	}
	return 0
}

func midHubsBad(x *Index, col int) Vertex {
	return x.midHubs[col] // want `dereferences mmap-aliased x.midHubs without runtime.KeepAlive`
}

func midBitsDirectBad(x *Index, v Vertex) uint64 {
	return x.midBits[v] // want `dereferences mmap-aliased x.midBits without runtime.KeepAlive`
}
