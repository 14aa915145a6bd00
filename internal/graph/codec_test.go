package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refNormalizeEdges and refFromEdges are the sort-based construction
// FromEdges replaced: one comparison sort of the whole list, then a sort
// of every adjacency row. They are the reference the counting-sort
// construction must reproduce exactly.
func refNormalizeEdges(n int, edges []Edge) []Edge {
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if int(e.U) < 0 || int(e.U) >= n || int(e.V) < 0 || int(e.V) >= n {
			panic("out of range")
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		if norm[i].V != norm[j].V {
			return norm[i].V < norm[j].V
		}
		return norm[i].W < norm[j].W
	})
	out := norm[:0]
	for _, e := range norm {
		if len(out) > 0 && out[len(out)-1].U == e.U && out[len(out)-1].V == e.V {
			continue
		}
		out = append(out, e)
	}
	return out
}

type refRow struct {
	adj []Vertex
	wt  []Dist
}

func (r refRow) Len() int           { return len(r.adj) }
func (r refRow) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r refRow) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wt[i], r.wt[j] = r.wt[j], r.wt[i]
}

func refFromEdges(n int, edges []Edge) *Graph {
	norm := refNormalizeEdges(n, edges)
	g := &Graph{off: make([]int64, n+1), adj: make([]Vertex, 2*len(norm)), wt: make([]Dist, 2*len(norm))}
	deg := make([]int64, n)
	for _, e := range norm {
		deg[e.U]++
		deg[e.V]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] = g.off[i] + deg[i]
	}
	cursor := make([]int64, n)
	copy(cursor, g.off[:n])
	for _, e := range norm {
		g.adj[cursor[e.U]], g.wt[cursor[e.U]] = e.V, e.W
		cursor[e.U]++
		g.adj[cursor[e.V]], g.wt[cursor[e.V]] = e.U, e.W
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		sort.Sort(refRow{adj: g.adj[g.off[v]:g.off[v+1]], wt: g.wt[g.off[v]:g.off[v+1]]})
	}
	return g
}

// TestFromEdgesMatchesReference holds the counting-sort construction to
// the sort-based one over lists with duplicates of differing weight,
// self-loops, both endpoint orders, zero weights and isolated vertices.
func TestFromEdgesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 2, 50} {
		for trial := 0; trial < 40; trial++ {
			// The top third of the ids never appear, so those vertices
			// stay isolated; the rest repeat, so duplicates and
			// self-loops are frequent. n = 0 gets self-loops alone.
			k := max(1, n-n/3)
			var edges []Edge
			for i := r.Intn(4 * (n + 1)); i > 0; i-- {
				e := Edge{U: Vertex(r.Intn(k)), V: Vertex(r.Intn(k)), W: Dist(r.Intn(4))}
				edges = append(edges, e)
				if r.Intn(3) == 0 { // the same pair reversed, another weight
					edges = append(edges, Edge{U: e.V, V: e.U, W: Dist(r.Intn(4))})
				}
			}
			in := append([]Edge(nil), edges...)
			if got, want := NormalizeEdges(n, edges), refNormalizeEdges(n, edges); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial %d: NormalizeEdges = %v, want %v", n, trial, got, want)
			}
			if got, want := FromEdges(n, edges), refFromEdges(n, edges); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial %d: FromEdges = %+v, want %+v", n, trial, got, want)
			}
			if !reflect.DeepEqual(in, edges) {
				t.Fatalf("n=%d trial %d: FromEdges modified its input", n, trial)
			}
		}
	}
}

// pgph encodes a PGPH file with a valid checksum around arbitrary
// header counts, offsets and (neighbour, weight) pairs.
func pgph(n, deg2 uint32, off []uint64, pairs [][2]uint32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(le.AppendUint32([]byte("PGPH"), 1), n), deg2)
	for _, o := range off {
		b = le.AppendUint64(b, o)
	}
	for _, p := range pairs {
		b = le.AppendUint32(le.AppendUint32(b, p[0]), p[1])
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// pgphWeight is a checksum-valid PGPH file of one edge {0,1} weighing w.
func pgphWeight(w uint32) []byte {
	return pgph(2, 2, []uint64{0, 1, 2}, [][2]uint32{{1, w}, {0, w}})
}

// craftedFiles are checksum-valid PGPH files that a malformed writer
// could produce. Each breaks the Graph invariant in one way.
var craftedFiles = map[string][]byte{
	"offsets fall":                pgph(3, 2, []uint64{0, 2, 0, 2}, [][2]uint32{{1, 1}, {2, 1}}),
	"offsets start above zero":    pgph(2, 2, []uint64{1, 1, 2}, [][2]uint32{{1, 1}, {0, 1}}),
	"offsets end short of 2m":     pgph(2, 2, []uint64{0, 1, 1}, [][2]uint32{{1, 1}, {0, 1}}),
	"offsets past 2m":             pgph(2, 2, []uint64{0, 3, 2}, [][2]uint32{{1, 1}, {0, 1}}),
	"neighbour 7 of 2 vertices":   pgph(2, 2, []uint64{0, 1, 2}, [][2]uint32{{7, 1}, {0, 1}}),
	"negative neighbour":          pgph(2, 2, []uint64{0, 1, 2}, [][2]uint32{{math.MaxUint32, 1}, {0, 1}}),
	"self-loop":                   pgph(2, 2, []uint64{0, 1, 2}, [][2]uint32{{0, 1}, {1, 1}}),
	"repeated neighbour":          pgph(2, 4, []uint64{0, 2, 4}, [][2]uint32{{1, 1}, {1, 1}, {0, 1}, {0, 1}}),
	"row out of order":            pgph(3, 4, []uint64{0, 2, 3, 4}, [][2]uint32{{2, 1}, {1, 1}, {0, 1}, {0, 1}}),
	"edge listed from one end":    pgph(2, 1, []uint64{0, 1, 1}, [][2]uint32{{1, 1}}),
	"edge listed from below only": pgph(2, 1, []uint64{0, 0, 1}, [][2]uint32{{0, 1}}),
	"mates differ in weight":      pgph(2, 2, []uint64{0, 1, 2}, [][2]uint32{{1, 5}, {0, 6}}),
	"mate in the wrong row":       pgph(3, 4, []uint64{0, 1, 3, 4}, [][2]uint32{{1, 1}, {0, 1}, {2, 1}, {0, 1}}),
	"infinite weight":             pgphWeight(uint32(Inf)),
}

// shortClaims are files far shorter than their header's counts; reading
// them must fail without reserving what the header claims.
var shortClaims = map[string][]byte{
	"2^32-1 vertices in 20 bytes": pgph(math.MaxUint32, 0, nil, nil),
	"2^31-1 vertices in 20 bytes": pgph(math.MaxInt32, 0, nil, nil),
	"2^32-1 entries in 28 bytes":  pgph(0, math.MaxUint32, []uint64{0}, nil),
}

func TestReadBinaryRejectsCraftedFiles(t *testing.T) {
	for name, data := range craftedFiles {
		t.Run(name, func(t *testing.T) {
			if g, err := ReadBinary(bytes.NewReader(data)); err == nil {
				t.Fatalf("accepted: %+v", g)
			}
		})
	}
	for name, data := range shortClaims {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := ReadBinary(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted: %+v", g)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
				t.Fatalf("reserved %d bytes for a %d-byte file", got, len(data))
			}
		})
	}
}

// FuzzReadBinary: any input is either rejected, or yields a graph that
// holds the Graph invariant (FromEdges rebuilds it exactly from its
// edges) and that WriteBinary writes back byte for byte.
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*Graph{triangle(), FromEdges(0, nil)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, files := range []map[string][]byte{craftedFiles, shortClaims} {
		for _, data := range files {
			f.Add(data)
		}
	}
	// The Inf boundary's accepted side; its refused side, weight Inf, is
	// craftedFiles' "infinite weight".
	f.Add(pgphWeight(uint32(Inf) - 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if re := FromEdges(g.NumVertices(), g.Edges()); !reflect.DeepEqual(g, re) {
			t.Fatalf("accepted a graph that breaks the invariant: %+v", g)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if out := buf.Bytes(); len(out) > len(data) || !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("write-back differs from the %d bytes read", len(out))
		}
	})
}
