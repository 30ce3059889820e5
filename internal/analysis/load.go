package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset, Files, Types and Info mirror the fields of a Pass. Each
	// package loaded by Load carries its own FileSet so packages can be
	// parsed and type-checked in parallel.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go command (run in dir) and returns the
// matched packages parsed and type-checked from source. Imports — both
// standard-library and intra-module — are satisfied from the compiler
// export data that `go list -export` produces, so loading works offline
// and needs nothing beyond the Go toolchain.
//
// Packages are parsed and type-checked in parallel across GOMAXPROCS
// workers; each gets a private FileSet and importer, so no loading state
// is shared between them.
func Load(dir string, patterns ...string) ([]*Package, error) {
	out, err := goList(dir, patterns, false)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if e.Error != nil {
			return nil, fmt.Errorf("package %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly && len(e.GoFiles) > 0 {
			targets = append(targets, e)
		}
	}

	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t listEntry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkgs[i], errs[i] = loadOne(t, exports)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// loadOne parses and type-checks one listed package against export data.
func loadOne(t listEntry, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	pkg, info, err := check(t.ImportPath, fset, files, imp)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		Path:  t.ImportPath,
		Dir:   t.Dir,
		Fset:  fset,
		Files: files,
		Types: pkg,
		Info:  info,
	}, nil
}

// check type-checks one package's parsed files, recording full type info.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		if firstErr != nil {
			err = firstErr
		}
		return nil, nil, err
	}
	return pkg, info, nil
}

// exportImporter returns a gc-compiler importer that reads export data
// from the files recorded in exports (import path → export file).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// errNotInTree reports an import that a testdata tree cannot resolve.
var errNotInTree = errors.New("import not under the source tree")
