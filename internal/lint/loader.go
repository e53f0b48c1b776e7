package lint

import (
	"bytes"
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked unit: either a package (its compile files
// plus in-package test files) or the external _test package of a directory.
type Package struct {
	// Path is the import path ("repro/internal/core", or with a "_test"
	// suffix for external test packages).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset is the loader's shared file set; all Diagnostic positions
	// resolve through it.
	Fset *token.FileSet
	// Files are the parsed files of the unit, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the unit.
	Types *types.Package
	Info  *types.Info
	// Prog is the module-wide interprocedural index, shared by every unit
	// of one lint run; LintAll fills it before any analyzer runs.
	Prog *Program
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library. Imports inside the module are type-checked
// from source under the module root; everything else (the standard
// library) is read from gc export data located with `go list -export`, so
// a Loader needs the go command that built it on PATH. NewLoader itself
// starts no process: the go list call happens when a tree is loaded.
type Loader struct {
	// Module is the module path from go.mod.
	Module string
	// Root is the absolute module root directory.
	Root string
	// Fset is shared by every parse, including the export-data importer's.
	Fset *token.FileSet

	mu      sync.Mutex                // guards everything below
	cache   map[string]*types.Package // import path -> checked (module packages: non-test files only)
	loading map[string]bool
	gc      types.ImporterFrom // reads export data through openExport
	exports map[string]string  // import path -> export data file, as listed by go list
}

// NewLoader locates the enclosing module by walking up from dir (or the
// working directory if dir is "") to the nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := modulePath(string(data))
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	l := &Loader{
		Module:  module,
		Root:    root,
		Fset:    token.NewFileSet(),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
		exports: map[string]string{},
	}
	gc, ok := importer.ForCompiler(l.Fset, "gc", l.openExport).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: gc importer does not implement ImporterFrom")
	}
	l.gc = gc
	return l, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import resolves an import path for the type checker: module-internal
// paths are checked from source under Root, anything else is read from
// export data. Loader itself implements types.Importer so checked packages
// can import each other.
//
// Import is safe for concurrent use, with one caveat: two goroutines may
// not concurrently import module-internal packages whose dependency
// closures overlap, or the in-progress marker reads as a cycle.
// LoadTree avoids this by pre-filling the cache in dependency order, so
// its per-directory checks only ever hit the cache.
func (l *Loader) Import(path string) (*types.Package, error) {
	dir, internal := l.dirFor(path)
	if !internal {
		pkgs, err := l.importStd(path)
		if err != nil {
			return nil, err
		}
		return pkgs[0], nil
	}
	l.mu.Lock()
	if pkg, ok := l.cache[path]; ok {
		l.mu.Unlock()
		return pkg, nil
	}
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, path)
		l.mu.Unlock()
	}()

	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.cache[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// importStd returns the packages at the given non-module paths, reading
// each from export data into the cache on first use. Paths that no earlier
// go list call covered are listed together by one new call.
func (l *Loader) importStd(paths ...string) ([]*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var unlisted []string
	for _, path := range paths {
		_, cached := l.cache[path]
		if _, listed := l.exports[path]; !cached && !listed {
			unlisted = append(unlisted, path)
		}
	}
	if len(unlisted) > 0 {
		if err := l.goList(unlisted); err != nil {
			return nil, err
		}
	}
	pkgs := make([]*types.Package, len(paths))
	for i, path := range paths {
		pkg, ok := l.cache[path]
		if !ok {
			var err error
			if pkg, err = l.gc.ImportFrom(path, l.Root, 0); err != nil {
				return nil, fmt.Errorf("lint: reading export data from go list -export for %s: %w", path, err)
			}
			l.cache[path] = pkg
		}
		pkgs[i] = pkg
	}
	return pkgs, nil
}

// goList records the export data files of paths and of all their
// dependencies. It runs with GOPROXY=off: the loader only lists packages
// outside the module, and the module has no dependencies to download.
// Callers hold mu.
func (l *Loader) goList(paths []string) error {
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "--"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Root
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			err = fmt.Errorf("%w: %s", err, msg)
		}
		return fmt.Errorf("lint: go list -export %s: %w", strings.Join(paths, " "), err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			l.exports[path] = file
		}
	}
	return nil
}

// openExport is the gc importer's lookup: it opens the export data file go
// list reported for path. It runs inside importStd, so mu is held.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("go list -export reported no export data for %s", path)
	}
	return os.Open(file)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) (dir string, internal bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// parseDir parses the Go files of dir (compile files, plus _test.go files
// when tests is true), sorted by name.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	names, err := goFiles(dir, tests)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// goFiles lists the names of dir's Go files, sorted, skipping hidden and
// underscore files, and _test.go files unless tests is true.
func goFiles(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadDir loads the package in dir for linting. It returns up to two
// units: the package itself (compile files plus in-package test files when
// tests is true) and, when present and tests is true, the external _test
// package. Directories with no Go files return no units and no error.
func (l *Loader) LoadDir(dir string, tests bool) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	all, err := l.parseDir(abs, tests)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}
	path := l.pathFor(abs)

	// Split into the primary unit and the external test package by
	// package name: "foo_test" files form their own unit.
	var primary, xtest []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			primary = append(primary, f)
		}
	}
	var units []*Package
	if len(primary) > 0 {
		u, err := l.check(path, abs, primary)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(xtest) > 0 {
		u, err := l.check(path+"_test", abs, xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// pathFor derives the import path of an absolute directory inside (or
// outside) the module root.
func (l *Loader) pathFor(abs string) string {
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(abs)
	}
	if rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// check type-checks one unit with full Info for the analyzers.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: pkg, Info: info}, nil
}

// LoadTree loads every package directory under root (which must be inside
// the module), skipping testdata, hidden, and underscore directories. It
// runs in three steps, so the shared import cache is only ever read
// concurrently, never raced on:
//
//   - An import scan of the tree, then one go list call, imports every
//     non-module package the tree needs from export data.
//   - prefill checks the module-internal import DAG (the target directories
//     plus their transitive internal closure) into the cache level by
//     level — a package is checked only after all of its dependencies, and
//     packages within a level are independent, so they check in parallel.
//     Leftover nodes mean an import cycle.
//   - A pool of GOMAXPROCS workers checks the target units themselves (with
//     test files and full Info); every import is a cache hit by
//     construction.
//
// Units come back in directory order, the same at every worker count.
func (l *Loader) LoadTree(root string, tests bool) ([]*Package, error) {
	return l.loadTree(root, tests, runtime.GOMAXPROCS(0))
}

// loadTree is LoadTree on a fixed number of workers.
func (l *Loader) loadTree(root string, tests bool, workers int) ([]*Package, error) {
	dirs, err := l.walkDirs(root)
	if err != nil {
		return nil, err
	}
	std, deps := l.scanImports(dirs, tests)
	if _, err := l.importStd(std...); err != nil {
		return nil, err
	}
	if err := l.prefill(deps, workers); err != nil {
		return nil, err
	}
	units := make([][]*Package, len(dirs))
	errs := make([]error, len(dirs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				units[i], errs[i] = l.LoadDir(dirs[i], tests)
			}
		}()
	}
	for i := range dirs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var pkgs []*Package
	for i := range dirs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pkgs = append(pkgs, units[i]...)
	}
	return pkgs, nil
}

// scanImports reads the import clauses (parser.ImportsOnly) of the Go files
// in dirs, test files included when tests is true, and of the module
// packages they transitively import. It returns the non-module import
// paths, sorted, and the module import graph: deps maps each module package
// it read to the module paths its compile files (and, for the tree's own
// directories, in-package test files) import. Those are the edges that
// constrain check order, as in Go's import-cycle rules; external _test
// packages may legally import packages that import their own, so their
// imports only add nodes. Unreadable directories and files are skipped:
// the full load that follows reports them with more context.
func (l *Loader) scanImports(dirs []string, tests bool) (std []string, deps map[string][]string) {
	fset := token.NewFileSet()
	found := map[string]bool{}
	deps = map[string][]string{}
	queue := append([]string(nil), dirs...)
	seen := map[string]bool{}
	for _, dir := range dirs {
		seen[dir] = true
	}
	for i := 0; i < len(queue); i++ {
		dir := queue[i]
		names, err := goFiles(dir, tests && i < len(dirs))
		if err != nil || len(names) == 0 {
			continue
		}
		var edges []string
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				continue
			}
			xtest := strings.HasSuffix(f.Name.Name, "_test")
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				dep, internal := l.dirFor(path)
				if !internal {
					found[path] = true
					continue
				}
				if !seen[dep] {
					seen[dep] = true
					queue = append(queue, dep)
				}
				if !xtest && !slices.Contains(edges, path) {
					edges = append(edges, path)
				}
			}
		}
		deps[l.pathFor(dir)] = edges
	}
	std = make([]string, 0, len(found))
	for path := range found {
		std = append(std, path)
	}
	sort.Strings(std)
	return std, deps
}

// walkDirs collects the package directories under root, sorted, skipping
// testdata, hidden, and underscore directories.
func (l *Loader) walkDirs(root string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// prefill type-checks the module packages of deps into the import cache,
// in dependency order (Kahn's algorithm by levels), parallel within each
// level.
func (l *Loader) prefill(deps map[string][]string, workers int) error {
	done := map[string]bool{}
	for len(done) < len(deps) {
		var ready []string
		for path, ds := range deps {
			if done[path] {
				continue
			}
			ok := true
			for _, d := range ds {
				if _, tracked := deps[d]; tracked && !done[d] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, path)
			}
		}
		if len(ready) == 0 {
			var left []string
			for path := range deps {
				if !done[path] {
					left = append(left, path)
				}
			}
			sort.Strings(left)
			return fmt.Errorf("lint: import cycle among %s", strings.Join(left, ", "))
		}
		sort.Strings(ready)
		errs := make([]error, len(ready))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, path := range ready {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, path string) {
				defer wg.Done()
				defer func() { <-sem }()
				_, errs[i] = l.Import(path)
			}(i, path)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, path := range ready {
			done[path] = true
		}
	}
	return nil
}
