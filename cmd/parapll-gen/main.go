// parapll-gen synthesizes the paper's Table-2 datasets (or any subset) to
// graph files for the indexing tools.
//
// Usage:
//
//	parapll-gen -list
//	parapll-gen -dataset Skitter -scale 0.1 -out data/ -format bin
//	parapll-gen -all -scale 0.05 -out data/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parapll"
	"parapll/internal/gen"
	"parapll/internal/graph"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available datasets and exit")
		dataset = flag.String("dataset", "", "dataset name to generate (see -list)")
		all     = flag.Bool("all", false, "generate every dataset")
		scale   = flag.Float64("scale", 1.0, "size scale in (0,1]; 1.0 = paper-scale")
		out     = flag.String("out", ".", "output directory")
		format  = flag.String("format", "bin", "output format: bin or txt")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %10s %10s  %s\n", "name", "n", "m", "type")
		for _, rec := range gen.Datasets {
			fmt.Printf("%-12s %10d %10d  %s\n", rec.Name, rec.N, rec.M, rec.Kind)
		}
		return
	}
	ext := map[string]string{"bin": ".bin", "txt": ".txt"}[*format]
	if ext == "" {
		fatalf("unknown format %q (want bin or txt)", *format)
	}

	var recs []gen.Recipe
	switch {
	case *all:
		recs = gen.Datasets
	case *dataset != "":
		rec, err := gen.FindRecipe(*dataset)
		if err != nil {
			fatalf("%v (use -list)", err)
		}
		recs = []gen.Recipe{rec}
	default:
		fatalf("need -dataset NAME, -all, or -list")
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("creating output directory %s: %v", *out, err)
	}
	for _, rec := range recs {
		g := rec.Generate(*scale)
		name := strings.ToLower(rec.Name) + ext
		path := filepath.Join(*out, name)
		if err := parapll.SaveGraph(path, g); err != nil {
			fatalf("saving %s: %v", path, err)
		}
		s := graph.Summarize(g)
		fmt.Printf("%-12s -> %s  (n=%d m=%d maxdeg=%d components=%d)\n",
			rec.Name, path, s.N, s.M, s.MaxDegree, s.Components)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-gen: "+format+"\n", args...)
	os.Exit(1)
}
