package fileio

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

func testGraph() *graph.Graph {
	return graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5}, {U: 0, V: 3, W: 20},
	})
}

func TestGraphRoundTripFormats(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	for _, name := range []string{"g.txt", "g.edges", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveGraph(OS, path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := LoadGraph(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("%s: round trip changed graph", name)
		}
	}
}

func TestLoadDIMACS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gr")
	content := "p sp 2 1\na 1 2 9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 9 {
		t.Fatalf("DIMACS load wrong: w=%d ok=%v", w, ok)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	x := pll.Build(g, pll.Options{})
	path := filepath.Join(dir, "g.idx")
	if err := SaveIndex(OS, path, x); err != nil {
		t.Fatal(err)
	}
	y, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(y) {
		t.Fatal("index round trip changed index")
	}
}

// TestCompactIndexExtension: the extensions that once picked a format
// (".cidx" compact, ".midx" mmap) pick nothing now — SaveIndex writes the
// same PIDM bytes under every name, and SaveIndexAs knows one format.
func TestCompactIndexExtension(t *testing.T) {
	dir := t.TempDir()
	x := pll.Build(testGraph(), pll.Options{})
	var files [][]byte
	for _, name := range []string{"g.idx", "g.cidx", "g.midx"} {
		path := filepath.Join(dir, name)
		if err := SaveIndex(OS, path, x); err != nil {
			t.Fatal(err)
		}
		y, err := LoadIndex(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !x.Equal(y) || y.Format() != label.FormatMmap {
			t.Fatalf("%s: loaded %s, Equal %v", name, y.Format(), x.Equal(y))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) || !bytes.Equal(files[0], files[2]) || string(files[0][:4]) != "PIDM" {
		t.Fatal("the extension changed what SaveIndex wrote")
	}
	if err := SaveIndexAs(filepath.Join(dir, "g.idx"), x, "compact"); err == nil {
		t.Fatal("SaveIndexAs accepted a format that is gone")
	}
	if err := SaveIndexAs(filepath.Join(dir, "g.idx"), x, label.FormatMmap); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadGraph("/nonexistent/g.bin"); err == nil {
		t.Fatal("missing graph accepted")
	}
	if _, err := LoadIndex("/nonexistent/g.idx"); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestLoadCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.idx")
	if err := os.WriteFile(path, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(path); err == nil {
		t.Fatal("corrupt index accepted")
	}
	// A PIDM version 3 header: a file of a retired format, named as one.
	old := append([]byte("PIDM\x03\x00\x00\x00"), make([]byte, 184)...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(path); err == nil || !strings.Contains(err.Error(), "PIDM version 3") || !strings.Contains(err.Error(), "rebuild it with parapll-index") {
		t.Fatalf("LoadIndex of a version 3 file: %v", err)
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := SaveGraph(OS, filepath.Join(dir, "g.bin"), testGraph()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory has %v, want only g.bin", names)
	}
}

func TestSaveIntoMissingDirFails(t *testing.T) {
	if err := SaveGraph(OS, "/nonexistent/dir/g.bin", testGraph()); err == nil {
		t.Fatal("save into missing dir succeeded")
	}
	var x *label.Index = pll.Build(testGraph(), pll.Options{})
	if err := SaveIndex(OS, "/nonexistent/dir/g.idx", x); err == nil {
		t.Fatal("index save into missing dir succeeded")
	}
}

// BenchmarkGraphIngest prices what every build, boot and compaction does
// before any labelling: synthesize the benchmark's two graphs, rebuild
// the p2p one from its edge list, and save and load both through the
// PGPH codec (saves include the fsyncs).
func BenchmarkGraphIngest(b *testing.B) {
	p2pRec, _ := gen.FindRecipe("Gnutella")
	roadRec, _ := gen.FindRecipe("RI-USA")
	p2p, road := p2pRec.Generate(0.35), roadRec.Generate(0.07)
	dir := b.TempDir()
	p2pPath, roadPath := filepath.Join(dir, "p2p.bin"), filepath.Join(dir, "road.bin")
	for path, g := range map[string]*graph.Graph{p2pPath: p2p, roadPath: road} {
		if err := SaveGraph(OS, path, g); err != nil {
			b.Fatal(err)
		}
	}
	edges := p2p.Edges()
	run := func(name string, f func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("Generate/p2p", func() error { p2pRec.Generate(0.35); return nil })
	run("Generate/road", func() error { roadRec.Generate(0.07); return nil })
	run("FromEdges/p2p", func() error { graph.FromEdges(p2p.NumVertices(), edges); return nil })
	run("LoadGraph/p2p", func() error { _, err := LoadGraph(p2pPath); return err })
	run("LoadGraph/road", func() error { _, err := LoadGraph(roadPath); return err })
	run("SaveGraph/p2p", func() error { return SaveGraph(OS, p2pPath, p2p) })
}
