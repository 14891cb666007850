package analysis

import (
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
	"sort"
	"strconv"
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// exportIndex maps import paths to compiled export-data files,
// produced by `go list -export`. It is shared (and grown) across
// loads so repeated analysistest runs in one process list each
// dependency closure only once.
type exportIndex struct {
	mu    sync.Mutex
	files map[string]string
}

var exports = &exportIndex{files: map[string]string{}}

// goList runs `go list -e -export -deps -json` in dir for the given
// patterns, records every package's export data in the shared index,
// and returns the listed packages.
func goList(dir string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = io.Discard
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(out)
	var pkgs []*listedPkg
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			if err == io.EOF {
				break
			}
			cmd.Wait()
			return nil, fmt.Errorf("analysis: go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %w", patterns, err)
	}
	exports.mu.Lock()
	for _, p := range pkgs {
		if p.Export != "" {
			exports.files[p.ImportPath] = p.Export
		}
	}
	exports.mu.Unlock()
	return pkgs, nil
}

// lookupImporter resolves imports from already type-checked local
// packages first, then from the shared export-data index via the gc
// importer, special-casing "unsafe".
type lookupImporter struct {
	local map[string]*types.Package
	gc    types.Importer
}

func newImporter(fset *token.FileSet, local map[string]*types.Package) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		exports.mu.Lock()
		f, ok := exports.files[path]
		exports.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	return &lookupImporter{local: local, gc: importer.ForCompiler(fset, "gc", lookup)}
}

func (li *lookupImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := li.local[path]; p != nil {
		return p, nil
	}
	return li.gc.Import(path)
}

// typeCheck parses and type-checks one package from its source files.
func typeCheck(fset *token.FileSet, pkgPath, name, dir string, files []string, local map[string]*types.Package) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, f)
		}
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErr error
	conf := types.Config{
		Importer: newImporter(fset, local),
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, _ := conf.Check(pkgPath, fset, syntax, info)
	if typeErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, typeErr)
	}
	return &Package{
		PkgPath: pkgPath,
		Name:    name,
		Dir:     dir,
		Fset:    fset,
		Files:   syntax,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// LoadPatterns loads, parses and type-checks the packages matched by
// the go list patterns, resolved in dir's module. Dependencies are
// imported from compiled export data, so only the matched packages
// themselves are parsed.
func LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, p.ImportPath, p.Name, p.Dir, p.GoFiles, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// LoadDir loads every .go file directly under dir as one package with
// the given synthetic import path, resolving its imports (stdlib or
// module packages) through moduleDir's build context. It is the
// analysistest loader: testdata packages live outside the module's
// package graph but still type-check against the real repository
// packages they import. An import naming one of deps resolves to that
// already-loaded package, so testdata packages can import each other.
func LoadDir(moduleDir, dir, pkgPath string, deps ...*Package) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)

	// Resolve the testdata package's imports: parse import clauses
	// only, then let `go list -export` compile whatever is not in the
	// shared index yet.
	local := map[string]*types.Package{}
	for _, d := range deps {
		local[d.PkgPath] = d.Types
	}
	fset := token.NewFileSet()
	need := map[string]bool{}
	name := ""
	for _, f := range files {
		af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		name = af.Name.Name
		for _, imp := range af.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if p != "unsafe" && local[p] == nil {
				need[p] = true
			}
		}
	}
	var missing []string
	exports.mu.Lock()
	for p := range need {
		if _, ok := exports.files[p]; !ok {
			missing = append(missing, p)
		}
	}
	exports.mu.Unlock()
	if len(missing) > 0 {
		sort.Strings(missing)
		if _, err := goList(moduleDir, missing...); err != nil {
			return nil, err
		}
	}
	return typeCheck(token.NewFileSet(), pkgPath, name, dir, files, local)
}

// ModuleRoot walks up from dir to the enclosing go.mod directory.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		d = parent
	}
}
