package bench

import (
	"fmt"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/stats"
)

// RunAblations compares computing-sequence policies (degree vs.
// ψ-sampling vs. random) by the index size each yields, on one
// power-law and one road graph scaled by cfg.Scale.
func RunAblations(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablations: computing-sequence policy (time in seconds; index entries)",
		Header: []string{"graph", "ablation", "variant", "seconds", "metric", "value"},
	}
	social, err := gen.FindRecipe("Epinions")
	if err != nil {
		return nil, err
	}
	road, err := gen.FindRecipe("DE-USA")
	if err != nil {
		return nil, err
	}
	for _, rec := range []gen.Recipe{social, road} {
		g := rec.Generate(cfg.Scale)
		for _, o := range []struct {
			name string
			ord  []graph.Vertex
		}{
			{"degree", graph.DegreeOrder(g)},
			{"psi", order.PsiSample(g, 8, 1)},
			{"random", order.Random(g, 1)},
		} {
			var idx *label.Index
			d := timed(func() { idx = pll.Build(g, pll.Options{Order: o.ord}) })
			t.AddRow(rec.Name, "order", o.name, stats.FormatDuration(d),
				"entries", fmt.Sprint(idx.NumEntries()))
		}
	}
	return t, nil
}
