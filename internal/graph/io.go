package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Text edge-list format: one "u v w" triple per line (w optional,
// defaulting to 1), '#' or '%' comment lines ignored. This matches the
// common SNAP export layout, so real datasets drop in directly.
//
// DIMACS .gr format (9th DIMACS challenge, used by the paper's TIGER road
// networks): "p sp n m" header, "a u v w" arc lines with 1-based ids.
//
// Binary format: a fast checksummed cache ("PGPH" magic) used by the cmd/
// tools to avoid re-parsing big text files.

// WriteEdgeList writes g as a text edge list with one "u v w" line per
// undirected edge (U < V).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# undirected weighted graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W)
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list. Vertex ids may be sparse or
// unordered; they are compacted to [0,n) preserving numeric order. A
// missing third column means weight 1. Memory is O(m) whatever the ids:
// two lines naming vertex 2^31-2 cost what two lines naming vertex 1 do.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var edges []Edge
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected at least 2 fields, got %q", lineno, line)
		}
		u, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineno, f[0], err)
		}
		v, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineno, f[1], err)
		}
		w := int64(1)
		if len(f) >= 3 {
			w, err = strconv.ParseInt(f[2], 10, 64)
			if err != nil || w < 0 || w >= int64(Inf) {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineno, f[2])
			}
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineno)
		}
		edges = append(edges, Edge{U: Vertex(u), V: Vertex(v), W: Dist(w)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return compactAndBuild(edges), nil
}

// compactAndBuild renumbers possibly-sparse ids to a dense [0,n) range,
// in numeric order, and builds the graph. The distinct ids are found by
// sorting the endpoints, so the work is O(m log m) and the memory O(m),
// never O(largest id).
func compactAndBuild(edges []Edge) *Graph {
	ids := make([]Vertex, 0, 2*len(edges))
	for _, e := range edges {
		ids = append(ids, e.U, e.V)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for i := range edges {
		u, _ := slices.BinarySearch(ids, edges[i].U)
		v, _ := slices.BinarySearch(ids, edges[i].V)
		edges[i].U, edges[i].V = Vertex(u), Vertex(v)
	}
	return FromEdges(len(ids), edges)
}

// ReadDIMACS parses the DIMACS shortest-path .gr format ("p sp n m" header,
// "a u v w" arcs, 1-based vertex ids). Reverse arcs are collapsed by
// FromEdges' normalization.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	n := -1
	var edges []Edge
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		switch line[0] {
		case 'p':
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "sp" {
				return nil, fmt.Errorf("graph: line %d: bad problem line %q", lineno, line)
			}
			var err error
			n, err = strconv.Atoi(f[2])
			if err != nil || n < 0 || n > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", lineno, f[2])
			}
		case 'a':
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: arc before problem line", lineno)
			}
			f := strings.Fields(line)
			if len(f) != 4 {
				return nil, fmt.Errorf("graph: line %d: bad arc line %q", lineno, line)
			}
			u, err1 := strconv.ParseInt(f[1], 10, 32)
			v, err2 := strconv.ParseInt(f[2], 10, 32)
			w, err3 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad arc %q", lineno, line)
			}
			if u < 1 || int(u) > n || v < 1 || int(v) > n || w < 0 || w >= int64(Inf) {
				return nil, fmt.Errorf("graph: line %d: arc out of range %q", lineno, line)
			}
			edges = append(edges, Edge{U: Vertex(u - 1), V: Vertex(v - 1), W: Dist(w)})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	return FromEdges(n, edges), nil
}

const binMagic = "PGPH"
const binVersion = 1

// The codec moves at most blockSize bytes per Read or Write, and reserves
// at most reserveAhead entries of an array before bytes back them.
const blockSize, reserveAhead = 32 << 10, 1 << 20

// WriteBinary writes g in the checksummed binary cache format: magic,
// version, n, 2m, offsets, (neighbour, weight) pairs, and their CRC-32.
func WriteBinary(w io.Writer, g *Graph) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, min(blockSize, 20+8*(len(g.off)+len(g.adj))))
	buf = le.AppendUint32(append(buf, binMagic...), binVersion)
	buf = le.AppendUint32(le.AppendUint32(buf, uint32(g.NumVertices())), uint32(len(g.adj)))
	var crc uint32
	flush := func() error {
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for i := range len(g.off) + len(g.adj) {
		if len(buf)+8 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		if j := i - len(g.off); j < 0 {
			buf = le.AppendUint64(buf, uint64(g.off[i]))
		} else {
			buf = le.AppendUint32(le.AppendUint32(buf, uint32(g.adj[j])), g.wt[j])
		}
	}
	if err := flush(); err != nil {
		return err
	}
	_, err := w.Write(le.AppendUint32(buf, crc))
	return err
}

// ReadBinary reads a graph written by WriteBinary, and only its bytes. It
// checks the checksum and the Graph invariant: offsets rise from 0 to 2m,
// each row strictly increases over [0,n) without its own vertex, and each
// edge is listed from both ends with one weight.
func ReadBinary(r io.Reader) (*Graph, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:8]); v != binVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", v)
	}
	n, deg2 := int(le.Uint32(hdr[8:12])), int(le.Uint32(hdr[12:16]))
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices overflow int32 ids", n)
	}
	crc := crc32.Update(0, crc32.IEEETable, hdr[:])
	buf := make([]byte, min(blockSize, 8*(n+1+deg2)))
	read := func(left int) ([]byte, error) { // the next min(left, block) records
		b := buf[:8*min(left, len(buf)/8)]
		_, err := io.ReadFull(r, b)
		crc = crc32.Update(crc, crc32.IEEETable, b)
		return b, err
	}
	off := make([]int64, 0, min(n+1, reserveAhead))
	for len(off) <= n {
		b, err := read(n + 1 - len(off))
		if err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[8:] {
			o := int64(le.Uint64(b))
			if o > int64(deg2) || len(off) > 0 && o < off[len(off)-1] {
				return nil, fmt.Errorf("graph: corrupt offsets")
			}
			off = append(off, o)
		}
	}
	adj, wt := make([]Vertex, 0, min(deg2, reserveAhead)), make([]Dist, 0, min(deg2, reserveAhead))
	for len(adj) < deg2 {
		b, err := read(deg2 - len(adj))
		if err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[8:] {
			v, w := le.Uint32(b), le.Uint32(b[4:])
			if w >= uint32(Inf) {
				return nil, fmt.Errorf("graph: edge %d: weight overflow", len(adj))
			}
			adj, wt = append(adj, Vertex(v)), append(wt, w)
		}
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	if got := le.Uint32(buf[:4]); got != crc {
		return nil, fmt.Errorf("graph: checksum mismatch: file %08x, computed %08x", got, crc)
	}
	if off[0] != 0 || off[n] != int64(deg2) {
		return nil, fmt.Errorf("graph: corrupt offsets")
	}
	// Rows are checked in order of u, and next[v] is the first entry of
	// v's row no smaller vertex has claimed: entry (u,v) with u < v must
	// find its mate (v,u) there, and each row must be claimed up to its
	// first entry above its own vertex.
	next := slices.Clone(off[:n])
	for u := range Vertex(n) { // n <= MaxInt32
		lo, hi, below := off[u], off[u+1], int64(0)
		for i := lo; i < hi; i++ {
			v := adj[i]
			if v < 0 || int(v) >= n || v == u || i > lo && v <= adj[i-1] {
				return nil, fmt.Errorf("graph: vertex %d: row not strictly increasing over [0,%d) without %d", u, n, u)
			}
			if v < u {
				below++
			} else if j := next[v]; j == off[v+1] || adj[j] != u || wt[j] != wt[i] {
				return nil, fmt.Errorf("graph: edge {%d,%d}: not listed from both ends with one weight", u, v)
			} else {
				next[v]++
			}
		}
		if next[u] != lo+below {
			return nil, fmt.Errorf("graph: vertex %d: an edge below it is listed from one end only", u)
		}
	}
	return &Graph{off: off, adj: adj, wt: wt}, nil
}
