package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package of the module under
// analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Name is the package name (clause), e.g. "main" for commands.
	Name string
	// Fset is shared across the whole load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info hold the type-checker's results. Info is fully
	// populated (Types, Defs, Uses, Selections) when type checking
	// succeeded; analyzers must tolerate nil entries for robustness.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking failures (the analysis
	// still runs syntactically when present).
	TypeErrors []error

	// modPath is the module path the package was loaded under
	// (TypeCheck resolves module-internal imports with it).
	modPath string
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). Packages are
// returned in deterministic (import-path) order. Standard-library
// dependencies are type-checked from GOROOT source by TypeCheck, so
// the loader needs no toolchain invocation and no third-party
// dependency.
func LoadModule(root string) ([]*Package, error) {
	pkgs, err := ParseModule(root)
	if err != nil {
		return nil, err
	}
	TypeCheck(pkgs)
	return pkgs, nil
}

// ParseModule is the parse-only first stage of LoadModule: it discovers,
// parses, and topologically orders the module's packages without type
// checking them. TypeCheck completes the load, so a caller can time the
// two stages apart.
func ParseModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	parsed, err := parseDirs(token.NewFileSet(), dirs, false)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*Package{}
	for i, pkg := range parsed {
		if pkg == nil {
			continue
		}
		rel, err := filepath.Rel(root, dirs[i])
		if err != nil {
			return nil, err
		}
		pkg.Path = modPath
		if rel != "." {
			pkg.Path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg.modPath = modPath
		byPath[pkg.Path] = pkg
	}

	// Order packages so every module-internal dependency precedes its
	// importers; TypeCheck relies on this.
	return topoSort(byPath, modPath)
}

// TypeCheck type-checks already-parsed packages, and the standard
// library they import, over their import DAG. Module-internal imports
// resolve against the packages before them in order; everything else
// resolves from GOROOT source (loader).
//
// The walk stays on the calling goroutine and visits the imports in the
// order a serial load requests them from go/types: the packages in
// order, each file's import specs in source order, depth first, each
// standard-library package parsed before its imports. A package's files
// parse on up to runtime.GOMAXPROCS(0) workers (parseDirs), each at the
// FileSet base reserved for it from the sizes of the files before it,
// the base a serial parse gives it. The shared FileSet therefore gives
// every file the same base on every run and at any GOMAXPROCS, so every
// token.Pos is fixed. Checking fans out too: each package is checked as
// soon as every package it imports is, on up to runtime.GOMAXPROCS(0)
// concurrent checks, while the walk runs ahead of them. TypeCheck
// returns when every check has finished.
//
// Each call builds its own loader, so every call pays for a cold load of
// the standard library the module imports: each package in that closure
// is resolved, parsed and checked once per call, and nothing outlives
// the call.
func TypeCheck(order []*Package) {
	if len(order) == 0 {
		return
	}
	l := newLoader(order[0].Fset)
	modPath := order[0].modPath
	checked := map[string]*loadNode{}
	for _, pkg := range order {
		deps := imports{}
		for _, path := range importPaths(pkg.Files) {
			switch {
			case !inModule(path, modPath):
				deps[path] = l.std(path)
			case checked[path] != nil:
				deps[path] = checked[path]
			default:
				deps[path] = finished(nil, fmt.Errorf("analysis: internal package %s not yet checked (topo-sort bug?)", path))
			}
		}
		checked[pkg.Path] = l.schedule(deps, func() (*types.Package, error) {
			pkg.Info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{
				Importer: deps,
				Sizes:    l.sizes,
				Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
			}
			pkg.Types, _ = conf.Check(pkg.Path, l.fset, pkg.Files, pkg.Info)
			return pkg.Types, nil
		})
	}
	l.wg.Wait()
}

// moduleDirs lists the directories under root that may hold packages,
// in filepath.WalkDir order: every directory but those named testdata
// or vendor or starting with . or _, and their subtrees.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// parseMode is the one parser mode of every load: comments kept (the
// analyzers read directives), identifiers left unresolved (go/types
// resolves them).
const parseMode = parser.ParseComments | parser.SkipObjectResolution

// srcFile is one file parseDirs parses: read in walk order, parsed on
// any worker, merged into the shared FileSet in walk order.
type srcFile struct {
	dir  int // index in parseDirs' dirs
	path string
	src  []byte
	// base is the file's reserved base in the shared FileSet.
	base int
	// direct marks a file holding a line directive: it skips the worker
	// and parses at the merge, straight into the shared FileSet.
	direct bool
	f      *ast.File
	err    error
	// lines is the line table the worker's private FileSet recorded.
	lines []int
}

// parseDirs parses the non-test .go files of each directory in dirs that
// go/build would build for build.Default (goodOSArchFile, then
// buildIncluded), and returns one package per directory, nil for a
// directory with none. With declsOnly it blanks each file's function
// bodies before parsing (blankFuncBodies): positions stay exact, but the
// files declare without implementing, which suits only packages nothing
// analyses, such as the standard library.
//
// Every file gets the base a serial parse would give it, one
// parser.ParseFile per file in walk order, yet the files parse on up to
// runtime.GOMAXPROCS(0) workers (fanOut). A file's base depends only on
// the sizes of the files before it: it is fset.Base(), plus their sizes,
// plus one per file. So every file is read and its base reserved first;
// then each parses into a private FileSet padded with one empty file up
// to that base; then the merge, in walk order, adds each file to fset at
// its base and copies the line table. SetLines does not carry the line
// info a line directive (//line, /*line) records, so a file whose bytes
// hold one parses at the merge, straight into fset, where its base has
// come round. Errors come back as a serial parse meets them: the first in
// walk order, with the files before it, and the failing one, in fset.
func parseDirs(fset *token.FileSet, dirs []string, declsOnly bool) ([]*Package, error) {
	var files []srcFile
	var readErr error
	base := fset.Base()
read:
	for i, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			readErr = err
			break
		}
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") ||
				!goodOSArchFile(fn) {
				continue
			}
			path := filepath.Join(dir, fn)
			src, err := os.ReadFile(path)
			if err != nil {
				readErr = err
				break read
			}
			if declsOnly {
				blankFuncBodies(src)
			}
			files = append(files, srcFile{dir: i, path: path, src: src, base: base, direct: hasLineDirective(src)})
			base += len(src) + 1
		}
	}

	fanOut(len(files), runtime.GOMAXPROCS(0), func(i int) {
		sf := &files[i]
		if sf.direct {
			return
		}
		priv := token.NewFileSet()
		if pad := sf.base - priv.Base() - 1; pad >= 0 {
			priv.AddFile("", -1, pad)
		}
		sf.f, sf.err = parser.ParseFile(priv, sf.path, sf.src, parseMode)
		sf.lines = priv.File(token.Pos(sf.base)).Lines()
	})

	pkgs := make([]*Package, len(dirs))
	for i := range files {
		sf := &files[i]
		if got := fset.Base(); got != sf.base {
			panic(fmt.Sprintf("analysis: %s reserved base %d, but the FileSet is at %d", sf.path, sf.base, got))
		}
		if sf.direct {
			sf.f, sf.err = parser.ParseFile(fset, sf.path, sf.src, parseMode)
		} else if !fset.AddFile(sf.path, -1, len(sf.src)).SetLines(sf.lines) {
			panic("analysis: " + sf.path + ": invalid line table")
		}
		if sf.err != nil {
			return nil, sf.err
		}
		if !buildIncluded(sf.f) {
			continue
		}
		p := pkgs[sf.dir]
		if p == nil {
			p = &Package{Dir: dirs[sf.dir], Name: sf.f.Name.Name, Fset: fset}
			pkgs[sf.dir] = p
		}
		if sf.f.Name.Name != p.Name {
			return nil, fmt.Errorf("analysis: %s mixes packages %s and %s", p.Dir, p.Name, sf.f.Name.Name)
		}
		p.Files = append(p.Files, sf.f)
	}
	return pkgs, readErr
}

// hasLineDirective reports whether src may hold a line directive, which
// the scanner records in the FileSet it parses into: "line " right after
// a /* anywhere, or right after a // that starts a line. Such bytes
// inside a string or another comment are a false alarm, which only sends
// the file to the merge.
func hasLineDirective(src []byte) bool {
	for i := 2; i <= len(src); i++ {
		j := bytes.Index(src[i:], []byte("line "))
		if j < 0 {
			return false
		}
		i += j
		if src[i-2] == '/' && (src[i-1] == '*' || src[i-1] == '/' && (i == 2 || src[i-3] == '\n')) {
			return true
		}
	}
	return false
}

// buildIncluded evaluates a file's //go:build constraint with go/build's
// tag set for build.Default (matchBuildTag), so custom tags
// (easyio_invariants) do not hold and go1.x holds only up to the
// toolchain's release. Files without a constraint are always included.
// It reads the parsed file: build.Default.MatchFile would read every
// file a second time.
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed: let the compiler complain, not us
			}
			return expr.Eval(matchBuildTag)
		}
	}
	return true
}

// matchBuildTag reports whether go/build holds tag for build.Default:
// GOOS (and the OS it implies), GOARCH, the compiler, "unix" on unix
// systems, "cgo" when cgo is enabled, and the tool, build and release
// tags.
func matchBuildTag(tag string) bool {
	ctxt := &build.Default
	switch {
	case tag == ctxt.GOOS, tag == ctxt.GOARCH, tag == ctxt.Compiler,
		tag == "cgo" && ctxt.CgoEnabled,
		tag == "unix" && unixOS(ctxt.GOOS),
		tag == "linux" && ctxt.GOOS == "android",
		tag == "solaris" && ctxt.GOOS == "illumos",
		tag == "darwin" && ctxt.GOOS == "ios":
		return true
	case tag == "boringcrypto":
		tag = "goexperiment.boringcrypto" // go/build's old name for it
	}
	return slices.Contains(ctxt.BuildTags, tag) || slices.Contains(ctxt.ToolTags, tag) ||
		slices.Contains(ctxt.ReleaseTags, tag)
}

// goodOSArchFile applies go/build's file-name rules: a name starting
// with _ or . never builds, and a name whose last _-separated elements
// (after the first _, before the extension and an optional _test) are a
// known GOOS and/or GOARCH builds only where those tags hold, so
// foo_windows.go is not analysed on linux.
func goodOSArchFile(name string) bool {
	if strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
		return false
	}
	name, _, _ = strings.Cut(name, ".")
	i := strings.Index(name, "_")
	if i < 0 {
		return true
	}
	l := strings.Split(name[i:], "_")
	if n := len(l); l[n-1] == "test" {
		l = l[:n-1]
	}
	n := len(l)
	if n >= 2 && knownOS(l[n-2]) && knownArch(l[n-1]) {
		return matchBuildTag(l[n-1]) && matchBuildTag(l[n-2])
	}
	if n >= 1 && (knownOS(l[n-1]) || knownArch(l[n-1])) {
		return matchBuildTag(l[n-1])
	}
	return true
}

// knownOS, unixOS and knownArch are go/build's lists (internal/syslist),
// which it does not export.
func knownOS(s string) bool {
	switch s {
	case "aix", "android", "darwin", "dragonfly", "freebsd", "hurd", "illumos", "ios", "js",
		"linux", "nacl", "netbsd", "openbsd", "plan9", "solaris", "wasip1", "windows", "zos":
		return true
	}
	return false
}

func unixOS(s string) bool {
	switch s {
	case "aix", "android", "darwin", "dragonfly", "freebsd", "hurd", "illumos", "ios",
		"linux", "netbsd", "openbsd", "solaris":
		return true
	}
	return false
}

func knownArch(s string) bool {
	switch s {
	case "386", "amd64", "amd64p32", "arm", "armbe", "arm64", "arm64be", "loong64", "mips",
		"mipsle", "mips64", "mips64le", "mips64p32", "mips64p32le", "ppc", "ppc64", "ppc64le",
		"riscv", "riscv64", "s390", "s390x", "sparc", "sparc64", "wasm":
		return true
	}
	return false
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// moduleImports lists the module-internal import paths of a package,
// sorted.
func moduleImports(pkg *Package, modPath string) []string {
	var out []string
	for _, path := range importPaths(pkg.Files) {
		if inModule(path, modPath) {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// importPaths lists the distinct import paths of files in the order
// go/types requests them from its importer: file by file, each file's
// specs in source order.
func importPaths(files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	return out
}

// inModule reports whether the import path names a package of the module
// modPath.
func inModule(path, modPath string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

// topoSort orders packages so every module-internal dependency precedes
// its importers; ties break by import path for determinism.
func topoSort(byPath map[string]*Package, modPath string) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		pkg := byPath[path]
		for _, dep := range moduleImports(pkg, modPath) {
			if _, ok := byPath[dep]; !ok {
				return fmt.Errorf("analysis: %s imports %s, which is not in the module", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// loader is TypeCheck's import-DAG scheduler. std walks a
// standard-library package on the caller's goroutine: every path
// resolves from $GOROOT/src with go/build's FindOnly mode, which reads
// no file, so std's vendored imports (golang.org/x/...) find
// $GOROOT/src/vendor as they do under go/importer's "source" importer,
// and go/build never invokes the go command. The directory is then read
// by the module loader's parseDirs, with its file filter and with
// function bodies blanked, and its imports are walked before std
// returns. schedule runs each package's check on its own goroutine once
// its imports are checked, holding one of the sem slots while it runs.
type loader struct {
	fset   *token.FileSet
	sizes  types.Sizes
	srcDir string
	// pkgs holds each standard-library import path's node, so an edge
	// into a walked package is one map lookup. A path whose imports are
	// still being walked holds a finished node carrying its import-cycle
	// error: that is what an import from inside its own closure gets, and
	// the check that asks never waits on itself.
	pkgs map[string]*loadNode
	sem  chan struct{}
	wg   sync.WaitGroup
}

func newLoader(fset *token.FileSet) *loader {
	return &loader{
		fset:   fset,
		sizes:  types.SizesFor("gc", build.Default.GOARCH),
		srcDir: filepath.Join(build.Default.GOROOT, "src"),
		pkgs:   map[string]*loadNode{"unsafe": finished(types.Unsafe, nil)},
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// loadNode is one package of the import DAG. Its check's result is set
// before done closes and read only after.
type loadNode struct {
	pkg  *types.Package
	err  error
	done chan struct{}
}

// finished returns a node whose result is known without a check.
func finished(pkg *types.Package, err error) *loadNode {
	n := &loadNode{pkg: pkg, err: err, done: make(chan struct{})}
	close(n.done)
	return n
}

// imports is one package's importer: the nodes of its import paths,
// every one finished before its check starts.
type imports map[string]*loadNode

func (m imports) Import(path string) (*types.Package, error) {
	n, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("analysis: import %q was not walked before the check", path)
	}
	return n.pkg, n.err
}

// schedule returns a node that check's result finishes. check starts on
// a goroutine once every node in deps has finished and a sem slot is
// free.
func (l *loader) schedule(deps imports, check func() (*types.Package, error)) *loadNode {
	n := &loadNode{done: make(chan struct{})}
	l.wg.Add(1)
	go func() { //easyio:allow nakedgo (host-side type-check pool: each check writes only its own node and package, reads its imports only after their done channels close, and TypeCheck joins on wg before any result is read)
		defer l.wg.Done()
		for _, d := range deps {
			<-d.done
		}
		l.sem <- struct{}{}
		n.pkg, n.err = check()
		<-l.sem
		close(n.done)
	}()
	return n
}

// std walks the standard-library package path once per loader and
// returns its node; an error to resolve, parse or check it is the
// node's error.
func (l *loader) std(path string) *loadNode {
	if n, ok := l.pkgs[path]; ok {
		return n
	}
	l.pkgs[path] = finished(nil, fmt.Errorf("import cycle through package %q", path))
	n := l.load(path)
	l.pkgs[path] = n
	return n
}

// load resolves and parses one package, walks its imports, and schedules
// a check of its declarations. Like go/importer's "source" importer, the
// check drops the package on a hard type error, which leaves it possibly
// incomplete, and keeps it on soft ones.
func (l *loader) load(path string) *loadNode {
	bp, err := build.Default.Import(path, l.srcDir, build.FindOnly)
	if err != nil {
		return finished(nil, err)
	}
	ps, err := parseDirs(l.fset, []string{bp.Dir}, true)
	if err != nil {
		return finished(nil, err)
	}
	var files []*ast.File
	if p := ps[0]; p != nil {
		for _, f := range p.Files {
			switch {
			case !importsC(f):
				files = append(files, f)
			case build.Default.CgoEnabled:
				return finished(nil, fmt.Errorf("analysis: package %q has cgo files, which the GOROOT source importer does not run cgo on", bp.ImportPath))
			}
			// go/build ignores a cgo file when cgo is disabled.
		}
	}
	if len(files) == 0 {
		return finished(nil, &build.NoGoError{Dir: bp.Dir})
	}
	deps := imports{}
	for _, dep := range importPaths(files) {
		deps[dep] = l.std(dep)
	}
	return l.schedule(deps, func() (*types.Package, error) {
		var hardErr error
		conf := types.Config{
			IgnoreFuncBodies: true,
			Sizes:            l.sizes,
			Importer:         deps,
			Error: func(err error) {
				if te, _ := err.(types.Error); hardErr == nil && !te.Soft {
					hardErr = err
				}
			},
		}
		pkg, err := conf.Check(bp.ImportPath, l.fset, files, nil)
		if err != nil {
			if hardErr != nil {
				pkg, err = nil, hardErr
			}
			return pkg, fmt.Errorf("type-checking package %q failed (%v)", bp.ImportPath, err)
		}
		return pkg, nil
	})
}

// importsC reports whether f imports the cgo pseudo-package "C".
func importsC(f *ast.File) bool {
	for _, spec := range f.Imports {
		if strings.Trim(spec.Path.Value, `"`) == "C" {
			return true
		}
	}
	return false
}
