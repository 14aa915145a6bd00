package gen

import (
	"fmt"
	"math"
	"sort"

	"parapll/internal/graph"
)

// Kind classifies a dataset by the generator family that mimics it.
type Kind string

// Generator families, matching the "Graph Type" column of Table 2.
const (
	KindSocial        Kind = "social"        // Chung–Lu power-law
	KindP2P           Kind = "p2p"           // Erdős–Rényi overlay
	KindCollaboration Kind = "collaboration" // overlapping cliques
	KindRoad          Kind = "road"          // perturbed grid
	KindAS            Kind = "as"            // preferential attachment / heavy power-law
)

// Recipe describes one Table-2 dataset: its name, the size of the original
// graph, and the generator family used to synthesize a stand-in. N and M
// are the paper's values; M is halved relative to Table 2 because SNAP and
// TIGER exports count directed arcs while the experiments run on the
// undirected graph (e.g. Table 2 lists Gnutella with 79,988 arcs; the
// undirected snapshot has 39,994 edges).
type Recipe struct {
	Name string
	N    int
	M    int // undirected edge count (= Table 2 m / 2)
	Kind Kind
	Seed uint64
}

// Datasets lists the eleven Table-2 graphs in the paper's order.
var Datasets = []Recipe{
	{Name: "Wiki-Vote", N: 7115, M: 100762, Kind: KindSocial, Seed: 101},
	{Name: "Gnutella", N: 10876, M: 39994, Kind: KindP2P, Seed: 102},
	{Name: "CondMat", N: 23133, M: 93468, Kind: KindCollaboration, Seed: 103},
	{Name: "DE-USA", N: 49109, M: 60512, Kind: KindRoad, Seed: 104},
	{Name: "RI-USA", N: 53658, M: 68789, Kind: KindRoad, Seed: 105},
	{Name: "AS-Relation", N: 57272, M: 491805, Kind: KindAS, Seed: 106},
	{Name: "HI-USA", N: 64892, M: 76225, Kind: KindRoad, Seed: 107},
	{Name: "Epinions", N: 75879, M: 405740, Kind: KindSocial, Seed: 108},
	{Name: "AskUbuntu", N: 137517, M: 254207, Kind: KindSocial, Seed: 109},
	{Name: "Skitter", N: 192244, M: 609066, Kind: KindAS, Seed: 110},
	{Name: "Euall", N: 265214, M: 365025, Kind: KindSocial, Seed: 111},
}

// FindRecipe looks a recipe up by name (case-sensitive, as printed in the
// paper).
func FindRecipe(name string) (Recipe, error) {
	for _, rec := range Datasets {
		if rec.Name == name {
			return rec, nil
		}
	}
	return Recipe{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// Generate synthesizes the dataset at the given scale in (0,1]: vertex and
// edge counts are multiplied by scale (rounded, with sane minimums) so the
// full experiment grid can be smoke-run quickly. Scale 1 reproduces the
// paper's sizes. The result is deterministic in (recipe, scale).
func (rec Recipe) Generate(scale float64) *graph.Graph {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("gen: scale %v out of (0,1]", scale))
	}
	n := int(math.Round(float64(rec.N) * scale))
	m := int(math.Round(float64(rec.M) * scale))
	if n < 16 {
		n = 16
	}
	// Keep average degree when the vertex floor kicks in, and never ask
	// for more edges than a simple graph can hold.
	if maxM := n * (n - 1) / 2; m > maxM {
		m = maxM
	}
	if m < n-1 {
		m = n - 1
	}
	switch rec.Kind {
	case KindSocial:
		return ChungLu(n, m, 2.2, rec.Seed)
	case KindAS:
		// Heavier hubs than social graphs; k chosen to hit m edges.
		k := m / n
		if k < 1 {
			k = 1
		}
		g := PreferentialAttachment(n, k, rec.Seed)
		return g
	case KindP2P:
		return ErdosRenyi(n, m, rec.Seed)
	case KindCollaboration:
		return Collaboration(n, m, rec.Seed)
	case KindRoad:
		rows := int(math.Sqrt(float64(n)))
		if rows < 2 {
			rows = 2
		}
		cols := (n + rows - 1) / rows
		return RoadGrid(rows, cols, m, rec.Seed)
	default:
		panic(fmt.Sprintf("gen: unknown kind %q", rec.Kind))
	}
}

// DegreeCCDF returns the complementary cumulative degree distribution of g:
// for each distinct degree d (ascending), the fraction of vertices with
// degree >= d. This is the quantity plotted in the paper's Figure 5.
func DegreeCCDF(g *graph.Graph) (degrees []int, frac []float64) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	counts := make(map[int]int)
	for v := 0; v < n; v++ {
		counts[g.Degree(graph.Vertex(v))]++
	}
	for d := range counts {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	frac = make([]float64, len(degrees))
	tail := n
	for i, d := range degrees {
		frac[i] = float64(tail) / float64(n)
		tail -= counts[d]
	}
	return degrees, frac
}
