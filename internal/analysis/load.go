package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList invokes the go tool in dir and decodes its JSON package stream.
// CGO is disabled so cgo-using stdlib packages resolve to their pure-Go
// declarations, which keeps source type-checking self-contained.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportsOf maps each listed package with compiler export data to its
// export file.
func exportsOf(listed []*listedPackage) map[string]string {
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// exportImporter resolves imports from compiler export data (stdlib and
// any other compiled dependency) or from packages already type-checked
// from source. It backs both the module loader and analysistest.
type exportImporter struct {
	gc      types.Importer
	exports map[string]string // import path -> export data file
	checked map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports, checked: make(map[string]*types.Package)}
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ei.checked[path]; ok {
		return p, nil
	}
	return ei.gc.Import(path)
}

// typeCheckDir parses the given files as one package and type-checks it
// against imp. Comments are retained for analysistest.
func typeCheckDir(fset *token.FileSet, pkgPath, dir string, fileNames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load lists the packages matching patterns under the module rooted at
// dir and type-checks every non-stdlib one from source, in dependency
// order. Stdlib imports are resolved from compiler export data (built
// into the local build cache by `go list -export`), so loading works
// offline and without any module dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exportsOf(listed))
	var out []*Package
	// `go list -deps` emits dependencies before dependents, so a single
	// in-order sweep sees every import already checked.
	for _, p := range listed {
		if p.Standard || p.ImportPath == "unsafe" {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := typeCheckDir(fset, p.ImportPath, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		imp.checked[p.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks the .go files in one directory as a
// single package with the given import path, resolving (only) stdlib
// imports. This is the analysistest loading path: testdata packages are
// outside the module's package graph, so they must be self-contained
// modulo the standard library.
func LoadDir(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var fileNames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			fileNames = append(fileNames, e.Name())
		}
	}
	if len(fileNames) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(fileNames)
	fset := token.NewFileSet()
	// Parse once without types to learn the import set, then build the
	// export map for exactly those packages and their dependencies.
	importSet := make(map[string]bool)
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != "unsafe" {
				importSet[path] = true
			}
		}
	}
	var listed []*listedPackage
	if len(importSet) > 0 {
		paths := make([]string, 0, len(importSet))
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if listed, err = goList(dir, append([]string{"list", "-e", "-deps", "-export", "-json"}, paths...)...); err != nil {
			return nil, err
		}
	}
	return typeCheckDir(fset, pkgPath, dir, fileNames, newExportImporter(fset, exportsOf(listed)))
}
