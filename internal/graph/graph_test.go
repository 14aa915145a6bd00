package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddDist(t *testing.T) {
	cases := []struct {
		a, b, want Dist
	}{
		{0, 0, 0},
		{1, 2, 3},
		{Inf, 0, Inf},
		{0, Inf, Inf},
		{Inf, Inf, Inf},
		{Inf - 1, 1, Inf}, // saturates exactly at the boundary
		{Inf - 1, 2, Inf}, // overflow clamps
		{Inf / 2, Inf / 2, Inf - 1},
	}
	for _, c := range cases {
		if got := AddDist(c.a, c.b); got != c.want {
			t.Errorf("AddDist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAddDistProperties(t *testing.T) {
	// Commutative and never less than either operand (monotone).
	f := func(a, b uint32) bool {
		s := AddDist(a, b)
		return s == AddDist(b, a) && s >= a && s >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func triangle() *Graph {
	return FromEdges(3, []Edge{{0, 1, 5}, {1, 2, 7}, {0, 2, 20}})
}

func TestFromEdgesBasic(t *testing.T) {
	g := triangle()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d, want 3,3", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 5 {
		t.Errorf("edge {0,1}: got w=%d ok=%v", w, ok)
	}
	if w, ok := g.HasEdge(1, 0); !ok || w != 5 {
		t.Errorf("reverse edge {1,0}: got w=%d ok=%v", w, ok)
	}
	if _, ok := g.HasEdge(0, 0); ok {
		t.Error("self edge should not exist")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestFromEdgesNormalization(t *testing.T) {
	// Self-loops dropped, duplicates keep min weight regardless of order.
	g := FromEdges(3, []Edge{
		{1, 1, 9}, // self-loop: dropped
		{0, 1, 8},
		{1, 0, 3}, // duplicate reversed: min weight 3 wins
		{2, 1, 4},
		{1, 2, 6}, // duplicate: 4 wins
	})
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if w, _ := g.HasEdge(0, 1); w != 3 {
		t.Errorf("edge {0,1} weight = %d, want 3", w)
	}
	if w, _ := g.HasEdge(1, 2); w != 4 {
		t.Errorf("edge {1,2} weight = %d, want 4", w)
	}
}

func TestFromEdgesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"out-of-range": func() { FromEdges(2, []Edge{{0, 5, 1}}) },
		"inf-weight":   func() { FromEdges(2, []Edge{{0, 1, Inf}}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph should have no vertices or edges")
	}
	if !IsConnected(g) {
		t.Error("empty graph counts as connected")
	}
	s := Summarize(g)
	if s.N != 0 || s.M != 0 {
		t.Error("empty summary wrong")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}})
	if g.NumVertices() != 5 {
		t.Fatalf("n = %d, want 5", g.NumVertices())
	}
	if g.Degree(4) != 0 {
		t.Errorf("Degree(4) = %d, want 0", g.Degree(4))
	}
	_, k := ConnectedComponents(g)
	if k != 4 {
		t.Errorf("components = %d, want 4", k)
	}
}

func randomEdges(r *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: Vertex(r.Intn(n)),
			V: Vertex(r.Intn(n)),
			W: Dist(1 + r.Intn(100)),
		}
	}
	return edges
}

func TestEdgesRoundTrip(t *testing.T) {
	// Rebuilding a graph from its own Edges() yields an identical graph.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(40)
		g := FromEdges(n, randomEdges(r, n, 3*n))
		g2 := FromEdges(n, g.Edges())
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("trial %d: round-trip through Edges() changed graph", trial)
		}
	}
}

func TestDegreeSumEquals2M(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(50)
		g := FromEdges(n, randomEdges(r, n, 4*n))
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(Vertex(v))
		}
		if sum != 2*g.NumEdges() {
			t.Fatalf("degree sum %d != 2m %d", sum, 2*g.NumEdges())
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := FromEdges(30, randomEdges(r, 30, 120))
	for v := 0; v < g.NumVertices(); v++ {
		ns, _ := g.Neighbors(Vertex(v))
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("adjacency of %d not strictly sorted: %v", v, ns)
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := FromEdges(7, []Edge{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
	})
	labels, k := ConnectedComponents(g)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("first triangle split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Error("second triangle split across components")
	}
	if labels[0] == labels[3] || labels[0] == labels[6] {
		t.Error("components merged incorrectly")
	}
}

func TestEdgeListIO(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, g2) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	in := "# comment\n10 20 5\n20 30\n% another comment\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3,2", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.HasEdge(1, 2); !ok || w != 1 { // "20 30" defaults to weight 1
		t.Errorf("default weight: w=%d ok=%v", w, ok)
	}
}

// The compaction costs memory in the edges, not in the largest id: ids
// {0, 2^24} once asked for a 16 MB seen array and a 64 MB remap.
func TestReadEdgeListHugeIDsCostNoMemory(t *testing.T) {
	in := fmt.Sprintf("0 %d 3\n%d 0 3\n", 1<<24, 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadEdgeList(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 2,1", g.NumVertices(), g.NumEdges())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes for a two-line file", got)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for name, in := range map[string]string{
		"one-field":   "5\n",
		"bad-vertex":  "a b\n",
		"neg-vertex":  "-1 2\n",
		"bad-weight":  "1 2 x\n",
		"huge-weight": "1 2 99999999999\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
				t.Errorf("expected error for %q", in)
			}
		})
	}
}

func TestReadDIMACS(t *testing.T) {
	in := `c test graph
p sp 3 4
a 1 2 5
a 2 1 5
a 2 3 7
a 1 3 20
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, triangle()) {
		t.Fatal("DIMACS parse differs from expected triangle")
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	for name, in := range map[string]string{
		"no-header":    "a 1 2 3\n",
		"bad-header":   "p max 3 4\n",
		"out-of-range": "p sp 2 1\na 1 5 1\n",
		"unknown":      "p sp 2 1\nz 1 2\n",
		"missing":      "c only comments\n",
		"n past int32": "p sp 2147483648 0\n",
		"n past int64": "p sp 99999999999999999999 0\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
				t.Errorf("expected error for %q", name)
			}
		})
	}
}

// TestReadersRefuseInfWeight holds each graph decoder to the Inf
// boundary: a weight of Inf-1 is stored as it is, and Inf, or (where
// the field is wider than 32 bits) anything that would truncate to a
// small weight, is refused. Inf means unreachable and must never enter
// a graph as a finite weight.
func TestReadersRefuseInfWeight(t *testing.T) {
	decoders := []struct {
		name   string
		wide   bool // the field holds values past 32 bits
		encode func(w uint64) []byte
		read   func(r io.Reader) (*Graph, error)
	}{
		{"edgelist", true, func(w uint64) []byte { return fmt.Appendf(nil, "0 1 %d\n", w) }, ReadEdgeList},
		{"dimacs", true, func(w uint64) []byte { return fmt.Appendf(nil, "p sp 2 1\na 1 2 %d\n", w) }, ReadDIMACS},
		{"pgph", false, func(w uint64) []byte { return pgphWeight(uint32(w)) }, ReadBinary},
	}
	// decode reports a panic as a failure and as an error, so one broken
	// row does not end the table (FromEdges panics on an Inf weight).
	decode := func(t *testing.T, read func(io.Reader) (*Graph, error), data []byte) (g *Graph, err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("decoding %q panicked: %v", data, p)
				g, err = nil, fmt.Errorf("panic: %v", p)
			}
		}()
		return read(bytes.NewReader(data))
	}
	for _, d := range decoders {
		t.Run(d.name, func(t *testing.T) {
			g, err := decode(t, d.read, d.encode(uint64(Inf)-1))
			if err != nil {
				t.Fatalf("weight Inf-1 refused: %v", err)
			}
			if w, ok := g.HasEdge(0, 1); !ok || w != Inf-1 {
				t.Fatalf("weight Inf-1 read as %d (edge %v)", w, ok)
			}
			refused := []uint64{uint64(Inf)}
			if d.wide {
				refused = append(refused, uint64(Inf)+1, 1<<40)
			}
			for _, w := range refused {
				if g, err := decode(t, d.read, d.encode(w)); err == nil {
					t.Errorf("weight %d accepted: %v", w, g.Edges())
				}
			}
		})
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(60)
		g := FromEdges(n, randomEdges(r, n, 3*n))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("trial %d: binary round trip changed the graph", trial)
		}
	}
}

func TestBinaryChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, triangle()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted stream accepted")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSummarize(t *testing.T) {
	g := triangle()
	s := Summarize(g)
	if s.N != 3 || s.M != 3 || s.MinDegree != 2 || s.MaxDegree != 2 ||
		s.Components != 1 || s.MinWeight != 5 || s.MaxWeight != 20 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.AvgDegree != 2 {
		t.Errorf("AvgDegree = %v, want 2", s.AvgDegree)
	}
}

func TestDegreeOrder(t *testing.T) {
	// Star plus a pendant chain: center has highest degree.
	g := FromEdges(6, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {3, 4, 1}, {4, 5, 1}})
	order := DegreeOrder(g)
	if order[0] != 0 {
		t.Fatalf("order[0] = %d, want 0 (max degree)", order[0])
	}
	checkDegreeOrder(t, g, order)

	// A path 0-1-2-3-4 with its middle edges light: 2 (two light edges)
	// goes first; 1 and 3 each keep one heavy edge and half a light one,
	// and tie, by id; 0 and 4 each lost half their heavy edge, by id.
	g = FromEdges(5, []Edge{{0, 1, 9}, {1, 2, 1}, {2, 3, 1}, {3, 4, 9}})
	if got, want := DegreeOrder(g), []Vertex{2, 1, 3, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeOrder = %v, want %v", got, want)
	}
	// Strength, not degree, leads: 0 has two weight-8 edges, 3 and 4 one
	// weight-1 edge each, and 1 > 2/8, so the lower-degree pair goes
	// first; the paper's degree order would put 0 first.
	g = FromEdges(5, []Edge{{0, 1, 8}, {0, 2, 8}, {3, 4, 1}})
	if got, want := DegreeOrder(g), []Vertex{3, 4, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeOrder = %v, want %v", got, want)
	}
	// A zero-weight edge counts as a weight-1 one, so 2 (id) and then 3
	// (half its edge left) go before the weight-5 pair.
	g = FromEdges(4, []Edge{{0, 1, 5}, {2, 3, 0}})
	if got, want := DegreeOrder(g), []Vertex{2, 3, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeOrder with a zero weight = %v, want %v", got, want)
	}
	// Two adjacent hubs split. Hubs 0 and 1 share a weight-1 edge and
	// each have three weight-2 leaves: score 2.5 (in units of 2³²).
	// Hub 2 has four weight-2 leaves and a weight-4 one: 2.25. Plain
	// strength takes 0, 1, 2; once 0 is taken, 1 keeps half the shared
	// edge, 2.0, and 2 goes between them. Each hub then halves its
	// leaves, to 0.25, so the leaves go by id, and 13 (0.125) last.
	g = FromEdges(14, []Edge{
		{0, 1, 1}, {0, 3, 2}, {0, 4, 2}, {0, 5, 2},
		{1, 6, 2}, {1, 7, 2}, {1, 8, 2},
		{2, 9, 2}, {2, 10, 2}, {2, 11, 2}, {2, 12, 2}, {2, 13, 4},
	})
	if got, want := DegreeOrder(g), []Vertex{0, 2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeOrder with adjacent hubs = %v, want %v", got, want)
	}

	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(60)
		edges := make([]Edge, 0, 3*n)
		for i := 0; i < 3*n; i++ {
			edges = append(edges, Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n)), Dist(r.Intn(6))})
		}
		g := FromEdges(n, edges)
		checkDegreeOrder(t, g, DegreeOrder(g))
		// Where every weight is one constant c, each score is a count of
		// halves of one conductance: the sequence is the residual greedy
		// on degree, led by the largest degree, smallest id.
		for _, c := range []Dist{0, 1, 7, Inf - 1} {
			for i := range edges {
				edges[i].W = c
			}
			g := FromEdges(n, edges)
			ord := DegreeOrder(g)
			checkDegreeOrder(t, g, ord)
			lead := Vertex(0)
			for g.Degree(lead) != g.MaxDegree() {
				lead++
			}
			if ord[0] != lead {
				t.Fatalf("weights all %d: DegreeOrder leads with %d, want %d, the first of degree %d", c, ord[0], lead, g.MaxDegree())
			}
		}
	}
}

// FuzzDegreeOrder builds a small weighted graph from the bytes — the
// first picks n, each following triple an edge (u, v, w), with the top
// byte values standing for weights near Inf — and holds DegreeOrder to
// its contract (checkDegreeOrder).
func FuzzDegreeOrder(f *testing.F) {
	f.Add([]byte{5, 0, 1, 9, 1, 2, 1, 2, 3, 1, 3, 4, 9})
	f.Add([]byte{4, 0, 1, 5, 2, 3, 0})
	f.Add([]byte{3, 0, 1, 255, 1, 2, 250, 0, 2, 0})
	// The lighter-edged degree-1 pair goes before the degree-2 vertex:
	// an unweighted degree sort would disagree.
	f.Add([]byte{4, 0, 1, 8, 0, 2, 8, 3, 4, 1})
	// Two adjacent hubs, split by a third once the first is taken.
	f.Add([]byte{14, 0, 1, 1, 0, 3, 2, 0, 4, 2, 0, 5, 2, 1, 6, 2, 1, 7, 2, 1, 8, 2,
		2, 9, 2, 2, 10, 2, 2, 11, 2, 2, 12, 2, 2, 13, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%64)
		var edges []Edge
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			w := Dist(b[2])
			if b[2] >= 250 {
				w = Inf - Dist(256-int(b[2]))
			}
			edges = append(edges, Edge{Vertex(int(b[0]) % n), Vertex(int(b[1]) % n), w})
		}
		g := FromEdges(n, edges)
		checkDegreeOrder(t, g, DegreeOrder(g))
	})
}

// checkDegreeOrder fails t unless ord is g's residual weighted-degree
// sequence, found here by the rule stated directly, in quadratic time:
// a vertex's score is the sum over its edges of the conductance
// ⌊2³²/max(w,1)⌋, less half of it (rounded down) where the other end
// is already picked, and each step picks the unpicked vertex of highest
// score, ties to the smaller id.
func checkDegreeOrder(t testing.TB, g *Graph, ord []Vertex) {
	t.Helper()
	if err := CheckOrder(ord, g.NumVertices()); err != nil {
		t.Fatalf("not a permutation: %v", err)
	}
	picked := make([]bool, g.NumVertices())
	score := func(v Vertex) uint64 {
		ns, ws := g.Neighbors(v)
		var s uint64
		for i, u := range ns {
			c := (1 << 32) / uint64(max(ws[i], 1))
			if picked[u] {
				c -= c / 2
			}
			s += c
		}
		return s
	}
	for i, got := range ord {
		want := Vertex(-1)
		for v := range Vertex(len(picked)) {
			if !picked[v] && (want < 0 || score(v) > score(want)) {
				want = v
			}
		}
		if got != want {
			t.Fatalf("at %d: vertex %d (score %d), want %d (score %d); order %v",
				i, got, score(got), want, score(want), ord)
		}
		picked[got] = true
	}
}

func TestMaxDegree(t *testing.T) {
	g := triangle()
	if md := g.MaxDegree(); md != 2 {
		t.Errorf("MaxDegree = %d, want 2", md)
	}
}
