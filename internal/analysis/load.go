package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// A Loader type-checks packages from source. Imports under the repo
// module path resolve against ModuleRoot; everything else (the
// standard library — the repo's go.mod declares no dependencies) is
// compiled from GOROOT source by the stdlib "source" importer, so the
// driver needs no installed export data and no tooling beyond the Go
// distribution itself.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std  types.Importer
	pkgs map[string]*Package
}

// A Package is one loaded, type-checked package: the default build
// context's non-test files with full type information.
type Package struct {
	Dir   string
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewLoader returns a Loader rooted at the module directory. The
// module path is read from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := modulePath(moduleRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// FindModuleRoot ascends from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-internal paths load from
// source under ModuleRoot, everything else delegates to the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if rel, ok := l.moduleRel(path); ok {
		p, err := l.LoadDir(filepath.Join(l.ModuleRoot, rel), path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// moduleRel maps an import path inside the module to a root-relative
// directory.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.ModulePath {
		return ".", true
	}
	if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return rel, true
	}
	return "", false
}

// LoadDir type-checks the package in dir under the given import path,
// memoized by path. Only the default build context's non-test files
// participate (the same file set `go build` compiles on this host).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: scanning %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Dir: dir, Path: path, Files: files, Pkg: pkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// ParseDirAll parses every non-test .go file in dir regardless of
// build constraints (syntax only), so pragmas in every build variant
// of a package are seen.
func (l *Loader) ParseDirAll(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// GoDirs walks root and returns every directory holding non-test .go
// files, skipping hidden directories and testdata trees.
func GoDirs(root string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}
