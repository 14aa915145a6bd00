package gen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"parapll/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(3).Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[x] = true
	}
}

func TestErdosRenyiExact(t *testing.T) {
	g := ErdosRenyi(100, 300, 5)
	if g.NumVertices() != 100 || g.NumEdges() != 300 {
		t.Fatalf("n=%d m=%d, want 100,300", g.NumVertices(), g.NumEdges())
	}
}

func TestErdosRenyiTooManyEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ErdosRenyi(4, 100, 1)
}

func TestChungLuShape(t *testing.T) {
	g := ChungLu(2000, 8000, 2.2, 9)
	if g.NumVertices() != 2000 || g.NumEdges() != 8000 {
		t.Fatalf("n=%d m=%d, want 2000,8000", g.NumVertices(), g.NumEdges())
	}
	// Power law: max degree should dwarf the average degree.
	avg := 2.0 * float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 5*avg {
		t.Errorf("max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), avg)
	}
	// Early (low-id) vertices should be the hubs.
	if g.Degree(0) < g.Degree(1500) {
		t.Errorf("vertex 0 degree %d < vertex 1500 degree %d; hub ordering broken",
			g.Degree(0), g.Degree(1500))
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(1000, 4, 10)
	if g.NumVertices() != 1000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// ~k edges per arriving vertex.
	if g.NumEdges() < 3500 || g.NumEdges() > 4100 {
		t.Fatalf("m = %d, expected ≈4000", g.NumEdges())
	}
	if !graph.IsConnected(g) {
		t.Error("preferential attachment graph should be connected")
	}
	avg := 2.0 * float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 4*avg {
		t.Errorf("max degree %d not hub-like vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestPreferentialAttachmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PreferentialAttachment(3, 5, 1)
}

func TestRoadGrid(t *testing.T) {
	g := RoadGrid(30, 40, 2500, 11)
	if g.NumVertices() != 1200 || g.NumEdges() != 2500 {
		t.Fatalf("n=%d m=%d, want 1200,2500", g.NumVertices(), g.NumEdges())
	}
	// Road networks are near-uniform low degree: no hubs.
	if g.MaxDegree() > 12 {
		t.Errorf("road grid max degree %d too hub-like", g.MaxDegree())
	}
	s := graph.Summarize(g)
	if s.MinWeight < 100 || s.MaxWeight > 282 {
		t.Errorf("weights [%d,%d] outside street-length range", s.MinWeight, s.MaxWeight)
	}
}

func TestRoadGridThinned(t *testing.T) {
	// m below the full grid count thins the grid rather than hanging.
	g := RoadGrid(10, 10, 50, 12)
	if g.NumEdges() != 50 {
		t.Fatalf("m = %d, want 50", g.NumEdges())
	}
}

func TestCollaboration(t *testing.T) {
	g := Collaboration(500, 1500, 13)
	if g.NumVertices() != 500 || g.NumEdges() != 1500 {
		t.Fatalf("n=%d m=%d, want 500,1500", g.NumVertices(), g.NumEdges())
	}
	// Clique structure yields triangles: count a few.
	tri := 0
	for v := graph.Vertex(0); v < 100 && tri == 0; v++ {
		ns, _ := g.Neighbors(v)
		for i := 0; i < len(ns) && tri == 0; i++ {
			for j := i + 1; j < len(ns); j++ {
				if _, ok := g.HasEdge(ns[i], ns[j]); ok {
					tri++
					break
				}
			}
		}
	}
	if tri == 0 {
		t.Error("collaboration graph has no triangles among first 100 vertices")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for name, f := range map[string]func() *graph.Graph{
		"er":     func() *graph.Graph { return ErdosRenyi(200, 600, 21) },
		"cl":     func() *graph.Graph { return ChungLu(200, 600, 2.2, 21) },
		"ba":     func() *graph.Graph { return PreferentialAttachment(200, 3, 21) },
		"grid":   func() *graph.Graph { return RoadGrid(14, 15, 300, 21) },
		"collab": func() *graph.Graph { return Collaboration(200, 500, 21) },
	} {
		t.Run(name, func(t *testing.T) {
			if !reflect.DeepEqual(f(), f()) {
				t.Error("generator not deterministic")
			}
		})
	}
}

func TestFindRecipe(t *testing.T) {
	rec, err := FindRecipe("Skitter")
	if err != nil || rec.N != 192244 {
		t.Fatalf("FindRecipe(Skitter) = %+v, %v", rec, err)
	}
	if _, err := FindRecipe("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRecipesGenerateAtSmallScale(t *testing.T) {
	for _, rec := range Datasets {
		rec := rec
		t.Run(rec.Name, func(t *testing.T) {
			t.Parallel()
			g := rec.Generate(0.01)
			if g.NumVertices() == 0 || g.NumEdges() == 0 {
				t.Fatalf("%s produced empty graph", rec.Name)
			}
			wantN := int(math.Round(float64(rec.N) * 0.01))
			if rec.Kind == KindRoad {
				// Grids round n up to rows*cols.
				if wantN >= 16 && (g.NumVertices() < wantN || g.NumVertices() > wantN+int(math.Sqrt(float64(wantN)))+1) {
					t.Errorf("road n = %d, want ≈%d", g.NumVertices(), wantN)
				}
			} else if wantN >= 16 && g.NumVertices() != wantN {
				t.Errorf("n = %d, want %d", g.NumVertices(), wantN)
			}
		})
	}
}

func TestRecipeScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for scale 0")
		}
	}()
	Datasets[0].Generate(0)
}

func TestRecipeDegreeShapes(t *testing.T) {
	// Figure 5's qualitative claim: road networks have uniformly low
	// degree, the rest are heavy-tailed.
	road, _ := FindRecipe("DE-USA")
	social, _ := FindRecipe("Epinions")
	gr := road.Generate(0.05)
	gs := social.Generate(0.05)
	if gr.MaxDegree() > 12 {
		t.Errorf("road max degree %d, want small", gr.MaxDegree())
	}
	avgS := 2 * float64(gs.NumEdges()) / float64(gs.NumVertices())
	if float64(gs.MaxDegree()) < 4*avgS {
		t.Errorf("social max degree %d vs avg %.1f: not heavy-tailed", gs.MaxDegree(), avgS)
	}
}

func TestDegreeCCDF(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}})
	degs, frac := DegreeCCDF(g)
	if !reflect.DeepEqual(degs, []int{1, 3}) {
		t.Fatalf("degrees = %v", degs)
	}
	if frac[0] != 1.0 || frac[1] != 0.25 {
		t.Fatalf("frac = %v, want [1 0.25]", frac)
	}
	// CCDF is non-increasing.
	for i := 1; i < len(frac); i++ {
		if frac[i] > frac[i-1] {
			t.Fatal("CCDF increased")
		}
	}
	if d, f := DegreeCCDF(graph.FromEdges(0, nil)); d != nil || f != nil {
		t.Fatal("empty graph CCDF should be nil")
	}
}

// TestDatasetBytesGolden pins the PGPH bytes of every Table-2 stand-in at
// scale 0.05 and of the three graphs benchmark/ serves. A generator, a
// FromEdges or a codec change that moves one byte of a dataset moves
// every index built from it, so these hashes change only with the
// datasets on purpose.
func TestDatasetBytesGolden(t *testing.T) {
	golden := []struct {
		name  string
		scale float64
		hash  string
	}{
		{"Wiki-Vote", 0.05, "c09300bffe131e907d965feb6c3878981927e52aa67cd723c770045aec98415f"},
		{"Gnutella", 0.05, "bc9c1e7fd90294b85f29078022857df91f9d7bff222f0b68f0d55a8792c39f90"},
		{"CondMat", 0.05, "fa79e2cf72ca313d24a587f34dc33578da9c05b2e763f1745eb8b2ebbd7a0cef"},
		{"DE-USA", 0.05, "e1c90ab16b982fa2df7ea63d731f6892acd0b5e39e3b51f458709b1c115a3c61"},
		{"RI-USA", 0.05, "9319d9d268b913ff92eba7054b6cf63e3984c823d5867fda9db036df92a82600"},
		{"AS-Relation", 0.05, "78a8f88afc9e52c9ca5eab40bd7fa70c30d8f4ab9af87253e6ee451ee4c1ba2e"},
		{"HI-USA", 0.05, "cb60e1227a0663a01ec2e3d77c0b967fb5709eaa62f497d571e49566b1ae014d"},
		{"Epinions", 0.05, "1344e1e39e8a12d0cc8d0a60d5920f98e1e337866b8fcca61a72e079ce96247b"},
		{"AskUbuntu", 0.05, "e016bf19e24589711de70395b78a65b165fa9d34748087ae93ee1a3774424089"},
		{"Skitter", 0.05, "f3c3254837e34cd50b24557c6ab68d441e918e00bc5e9cce8fd0e963bf114823"},
		{"Euall", 0.05, "649c1af8947b38445b6527d7fad7dbd845a98ae5705b9ce85b893bf0d9a8a953"},
		// The build workload's p2p and road graphs, and living_mixed's.
		{"Gnutella", 0.35, "6acc291f18bf73301904a96a34b947fcfff18c0c42cc73c8acd6aa3c0f3ca3a3"},
		{"RI-USA", 0.07, "fcadd27a954e66d56c38837e153db39f3c06592a5c8a1d5ffdc22623811f36a4"},
		{"Gnutella", 0.15, "2d71d017873c049f399fe55e9812bf230f63dc0963b96c6d11f710fb8b19af44"},
	}
	for _, c := range golden {
		c := c
		t.Run(fmt.Sprintf("%s@%v", c.name, c.scale), func(t *testing.T) {
			t.Parallel()
			rec, err := FindRecipe(c.name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := graph.WriteBinary(&buf, rec.Generate(c.scale)); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.hash {
				t.Errorf("sha256 = %s, want %s", got, c.hash)
			}
		})
	}
}

// TestCodecAllocsFlatInM: the PGPH codec allocates as often for
// Gnutella@0.35 as for Gnutella@0.05, seven times the edges, so it holds
// no per-edge or per-block buffer.
func TestCodecAllocsFlatInM(t *testing.T) {
	rec, err := FindRecipe("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(scale float64) (write, read float64) {
		g := rec.Generate(scale)
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		write = testing.AllocsPerRun(100, func() {
			if err := graph.WriteBinary(io.Discard, g); err != nil {
				t.Fatal(err)
			}
		})
		read = testing.AllocsPerRun(100, func() {
			if _, err := graph.ReadBinary(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		return write, read
	}
	w1, r1 := allocs(0.05)
	w2, r2 := allocs(0.35)
	if w1 != w2 || r1 != r2 {
		t.Errorf("allocs: WriteBinary %v at 0.05, %v at 0.35; ReadBinary %v at 0.05, %v at 0.35", w1, w2, r1, r2)
	}
}
