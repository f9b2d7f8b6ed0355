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
	"sort"
	"strings"
)

// pkgMeta is the slice of `go list -json` output the loader needs.
type pkgMeta struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Imports    []string
}

// LoadModule enumerates the packages matching patterns (via `go list`,
// run in dir), parses their non-test sources and type-checks them in
// dependency order. Standard-library imports are resolved from GOROOT
// source, so the loader needs no network and no pre-built export data.
func LoadModule(dir string, patterns []string) ([]*Package, error) {
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return load(metas)
}

func goList(dir string, patterns []string) ([]*pkgMeta, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var metas []*pkgMeta
	dec := json.NewDecoder(&out)
	for {
		var m pkgMeta
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		metas = append(metas, &m)
	}
	return metas, nil
}

// load parses and type-checks metas in dependency order.
func load(metas []*pkgMeta) ([]*Package, error) {
	fset := token.NewFileSet()
	byPath := make(map[string]*pkgMeta, len(metas))
	files := make(map[string][]*ast.File, len(metas))
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}
	for _, m := range metas {
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files[m.ImportPath] = append(files[m.ImportPath], f)
		}
	}

	// Topological order over module-internal imports.
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range byPath[path].Imports {
			if _, ok := byPath[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var paths []string
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := &chainImporter{
		mod: make(map[string]*types.Package),
		std: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, path := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		imp.mod[path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  path,
			Fset:  fset,
			Files: files[path],
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// chainImporter resolves module-internal imports from the packages already
// checked this load and everything else from GOROOT source.
type chainImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.mod[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// LoadTestdataPackages loads the package rooted at srcRoot/pkgPath and
// every local package it (transitively) imports, returning all of them
// in dependency order, the order LoadModule gives the engine.
// Imports are resolved first against sibling directories under srcRoot
// (mirroring x/tools analysistest's GOPATH layout), then against GOROOT
// source.
func LoadTestdataPackages(srcRoot, pkgPath string) ([]*Package, error) {
	var metas []*pkgMeta
	seen := make(map[string]bool)
	var collect func(path string) error
	collect = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("analysistest package %s: %w", path, err)
		}
		m := &pkgMeta{Dir: dir, ImportPath: path}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			m.GoFiles = append(m.GoFiles, e.Name())
		}
		metas = append(metas, m)
		// One parse pass just to discover local imports.
		fset := token.NewFileSet()
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, is := range f.Imports {
				imp := strings.Trim(is.Path.Value, `"`)
				if _, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(imp))); err == nil {
					m.Imports = append(m.Imports, imp)
					if err := collect(imp); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := collect(pkgPath); err != nil {
		return nil, err
	}
	return load(metas)
}
