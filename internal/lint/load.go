package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	// Path is the package's import path (module-qualified for repo
	// packages, synthetic for golden-file testdata).
	Path  string
	Files []*ast.File
	// Types is the type-checked package; Info holds the use/def/type
	// maps the analyzers consult. Both are always non-nil, but may be
	// incomplete if the package had type errors (analyzers must treat
	// missing Info entries as "unknown", not crash).
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check diagnostics. cad3-vet surfaces them
	// as a load failure; the golden harness asserts there are none so a
	// broken testdata package cannot silently produce zero findings.
	TypeErrors []error

	// checking/checked guard the type-check phase (loader.mu): a package
	// whose check is in flight answers imports with its incomplete Types,
	// which is how an import cycle surfaces as a type error instead of
	// infinite recursion.
	checking bool
	checked  bool
}

// Program is the full set of packages one analysis run sees.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Loader loads repo packages with the standard library only: files are
// parsed with go/parser, repo-internal imports are resolved recursively
// from source, and standard-library imports go through go/importer's
// source importer ($GOROOT/src). No go/packages, no subprocesses.
//
// LoadRepo parallelizes the two phases that dominate wall time: every
// package's files are parsed concurrently (token.FileSet is safe for
// concurrent use), and type-checking proceeds in dependency waves —
// packages whose module-internal imports are all checked run together.
// The stdlib source importer is not documented as concurrency-safe, so
// its calls serialize behind stdMu; it caches internally, making each
// distinct stdlib package a one-time cost.
type Loader struct {
	// Root is the module root directory.
	Root string
	// Module is the module path ("cad3"); imports under it load from Root.
	Module string

	fset *token.FileSet
	std  types.Importer

	mu    sync.Mutex // guards pkgs and the per-package checking/checked flags
	stdMu sync.Mutex // serializes the stdlib source importer
	pkgs  map[string]*Package
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
	}
}

// Import implements types.Importer so the type checker can pull in
// dependencies: module-internal paths load (and cache) from source,
// everything else is delegated to the stdlib source importer. Safe for
// concurrent use by wave-parallel type checks.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.Root, rel), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir under the given
// import path, reusing the cache on repeat calls.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	pkg, err := l.parseDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.check(pkg)
	return pkg, nil
}

// parseDir parses the package's buildable files and registers the
// (unchecked) package, reusing an existing registration. Concurrent
// callers may both parse; the first registration wins and the loser's
// work is discarded.
func (l *Loader) parseDir(dir, path string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	l.mu.Unlock()
	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, n), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", n, perr)
		}
		files = append(files, f)
	}
	pkg := &Package{Path: path, Files: files}
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	l.pkgs[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// check type-checks a parsed package once. A package already being
// checked answers immediately with whatever Types it has so far — that
// is how an import cycle surfaces as the type checker's cycle error
// instead of infinite recursion. LoadRepo's dependency waves guarantee
// that in the acyclic (i.e. every real) case, a package's imports are
// fully checked before any concurrent importer can reach it.
func (l *Loader) check(pkg *Package) {
	l.mu.Lock()
	if pkg.checked || pkg.checking {
		l.mu.Unlock()
		return
	}
	pkg.checking = true
	l.mu.Unlock()

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pkg.Path, l.fset, pkg.Files, info) // errors land in TypeErrors
	if tpkg == nil {
		tpkg = types.NewPackage(pkg.Path, pkg.Files[0].Name.Name)
	}
	pkg.Types = tpkg
	pkg.Info = info

	l.mu.Lock()
	pkg.checking = false
	pkg.checked = true
	l.mu.Unlock()
}

// goFiles lists the buildable non-test Go files of dir, honoring
// //go:build constraints against the loader's active tag set.
func (l *Loader) goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		ok, cerr := l.fileBuildable(filepath.Join(dir, n))
		if cerr != nil {
			return nil, cerr
		}
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// fileBuildable evaluates the file's //go:build constraint (if any)
// against GOOS, GOARCH and the toolchain release tags. Files
// guarded by foreign tags (e.g. the cad3_checks debug build) are
// excluded exactly like `go build` excludes them.
func (l *Loader) fileBuildable(path string) (bool, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if !constraint.IsGoBuild(line) {
				continue
			}
			expr, perr := constraint.Parse(line)
			if perr != nil {
				return false, fmt.Errorf("lint: %s: %w", path, perr)
			}
			return expr.Eval(tagActive), nil
		}
		break // first non-comment, non-blank line: constraints must precede it
	}
	return true, nil
}

// tagActive reports whether a build tag is satisfied in this toolchain's
// default configuration.
func tagActive(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "unix" && unixOS[runtime.GOOS] {
		return true
	}
	return strings.HasPrefix(tag, "go1.") && releaseTagActive(tag)
}

var unixOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// releaseTagActive reports whether a go1.N tag is at or below the
// running toolchain's minor version.
func releaseTagActive(tag string) bool {
	var n int
	if _, err := fmt.Sscanf(tag, "go1.%d", &n); err != nil {
		return false
	}
	cur := runtime.Version() // e.g. "go1.24.0"
	var major int
	if _, err := fmt.Sscanf(cur, "go1.%d", &major); err != nil {
		return true // unusual toolchain string: accept the tag
	}
	return n <= major
}

// LoadRepo loads every package in the module (skipping testdata, hidden
// directories, and directories with no buildable files) into a Program.
// Parsing runs fully parallel; type-checking runs in dependency waves
// so that independent packages check concurrently while every package
// still sees its module-internal imports fully checked.
func (l *Loader) LoadRepo() (*Program, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != l.Root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		names, gerr := l.goFiles(path)
		if gerr != nil || len(names) == 0 {
			return nil //nolint: unreadable dirs and file-less dirs are skipped
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: parse every package concurrently.
	paths := make([]string, len(dirs))
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, dir := range dirs {
		rel, rerr := filepath.Rel(l.Root, dir)
		if rerr != nil {
			return nil, rerr
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths[i] = path
		wg.Add(1)
		go func(i int, dir, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkgs[i], errs[i] = l.parseDir(dir, path)
		}(i, dir, path)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("lint: load %s: %w", paths[i], e)
		}
	}

	// Phase 2: type-check in dependency waves. The wave graph comes from
	// the parsed import declarations, so it covers exactly what the type
	// checker will ask the importer for.
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	pending := make(map[string]int, len(pkgs)) // path -> unchecked internal deps
	dependents := make(map[string][]string)    // path -> packages importing it
	for _, p := range pkgs {
		deps := map[string]bool{}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				ip, ierr := strconv.Unquote(imp.Path.Value)
				if ierr != nil {
					continue
				}
				if (ip == l.Module || strings.HasPrefix(ip, l.Module+"/")) && byPath[ip] != nil && ip != p.Path {
					deps[ip] = true
				}
			}
		}
		pending[p.Path] = len(deps)
		for d := range deps {
			dependents[d] = append(dependents[d], p.Path)
		}
	}
	wave := []string{}
	for _, p := range pkgs {
		if pending[p.Path] == 0 {
			wave = append(wave, p.Path)
		}
	}
	checked := 0
	for len(wave) > 0 {
		sort.Strings(wave) // deterministic scheduling order
		var cwg sync.WaitGroup
		for _, path := range wave {
			cwg.Add(1)
			go func(pkg *Package) {
				defer cwg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				l.check(pkg)
			}(byPath[path])
		}
		cwg.Wait()
		checked += len(wave)
		var next []string
		for _, path := range wave {
			for _, dep := range dependents[path] {
				pending[dep]--
				if pending[dep] == 0 {
					next = append(next, dep)
				}
			}
		}
		wave = next
	}
	// An import cycle leaves packages with pending deps; check them
	// sequentially so the type checker reports the cycle as an error.
	if checked < len(pkgs) {
		for _, p := range pkgs {
			l.check(p)
		}
	}

	prog := &Program{Fset: l.fset, Pkgs: pkgs}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// FindModuleRoot walks up from dir to the directory holding go.mod and
// returns it with the module path parsed from the file.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
