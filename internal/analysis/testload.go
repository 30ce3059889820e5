package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LoadTestdata loads one package from a GOPATH-style testdata tree
// (root/src/<path>/*.go), the layout analysistest uses. Imports resolve
// against the tree first — so testdata can stub module packages such as
// dsks/internal/storage — and fall back to real export data obtained
// with `go list -export` for standard-library packages.
//
// Trees are memoized per root within the process: loading several
// packages of one tree parses and type-checks each package once.
func LoadTestdata(root, path string) (*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	ld := treeLoaderFor(abs)
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if err := ld.init(); err != nil {
		return nil, err
	}
	return ld.load(path)
}

// treeLoaders memoizes one loader per testdata root.
var treeLoaders struct {
	sync.Mutex
	m map[string]*treeLoader
}

func treeLoaderFor(absRoot string) *treeLoader {
	treeLoaders.Lock()
	defer treeLoaders.Unlock()
	if treeLoaders.m == nil {
		treeLoaders.m = map[string]*treeLoader{}
	}
	ld, ok := treeLoaders.m[absRoot]
	if !ok {
		ld = &treeLoader{src: filepath.Join(absRoot, "src")}
		treeLoaders.m[absRoot] = ld
	}
	return ld
}

// treeLoader resolves imports for a testdata tree: source packages under
// src/, everything else through compiler export data.
type treeLoader struct {
	mu       sync.Mutex
	src      string
	fset     *token.FileSet
	pkgs     map[string]*Package // fully loaded in-tree packages
	external map[string]*types.Package
	exports  map[string]string
	gc       types.Importer
	loading  map[string]bool // import-cycle guard
	initErr  error
	inited   bool
}

// init prefetches export data for the tree's external imports once.
func (ld *treeLoader) init() error {
	if ld.inited {
		return ld.initErr
	}
	ld.inited = true
	ld.fset = token.NewFileSet()
	ld.pkgs = map[string]*Package{}
	ld.external = map[string]*types.Package{}
	ld.exports = map[string]string{}
	ld.loading = map[string]bool{}
	ld.initErr = ld.prefetchExports()
	if ld.initErr == nil {
		ld.gc = exportImporter(ld.fset, ld.exports)
	}
	return ld.initErr
}

// load parses and type-checks the in-tree package at path (and,
// recursively through Import, its in-tree dependencies).
func (ld *treeLoader) load(path string) (*Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through testdata package %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := filepath.Join(ld.src, filepath.FromSlash(path))
	files, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	pkg, info, err := check(path, ld.fset, files, ld)
	if err != nil {
		return nil, fmt.Errorf("type-checking testdata package %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: ld.fset, Files: files, Types: pkg, Info: info}
	ld.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer.
func (ld *treeLoader) Import(path string) (*types.Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p.Types, nil
	}
	if p, ok := ld.external[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.src, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	p, err := ld.gc.Import(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNotInTree, err)
	}
	ld.external[path] = p
	return p, nil
}

// parseDir parses every non-test Go file of dir.
func (ld *treeLoader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// prefetchExports scans every import spec under the tree, and resolves
// the paths that no source directory covers with one `go list -export`
// invocation, recording their export-data files. The listing is
// memoized on disk when no requested path could belong to this module
// (standard-library exports change only with the toolchain, which is
// part of the cache key).
func (ld *treeLoader) prefetchExports() error {
	external := map[string]bool{}
	err := filepath.WalkDir(ld.src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(ld.fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("parsing imports of %s: %w", p, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			dir := filepath.Join(ld.src, filepath.FromSlash(path))
			if st, err := os.Stat(dir); err == nil && st.IsDir() {
				continue // stubbed in the tree
			}
			external[path] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(external) == 0 {
		return nil
	}
	paths := make([]string, 0, len(external))
	cacheable := true
	for p := range external {
		paths = append(paths, p)
		// Module-internal packages (the module is named "dsks") have
		// exports that change with every source edit; never disk-cache a
		// listing that includes one.
		if p == "dsks" || strings.HasPrefix(p, "dsks/") {
			cacheable = false
		}
	}
	sort.Strings(paths)
	out, err := goList(".", paths, cacheable)
	if err != nil {
		return fmt.Errorf("go list for testdata imports: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("decoding go list output: %w", err)
		}
		if e.Export != "" {
			ld.exports[e.ImportPath] = e.Export
		}
	}
	return nil
}
