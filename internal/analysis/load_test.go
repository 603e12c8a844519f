package analysis

import (
	"errors"
	"fmt"
	"go/build"
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
	"testing"
	"time"
)

// moduleStdImports lists every import of the module's non-test packages
// that is not module-internal: the roots of the standard-library closure
// TypeCheck loads.
func moduleStdImports(t *testing.T) []string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ParseModule(root)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	seen := map[string]bool{}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if path == pkg.modPath || strings.HasPrefix(path, pkg.modPath+"/") || seen[path] {
					continue
				}
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// closure imports roots and everything they import, transitively, and
// returns the packages by path.
func closure(t *testing.T, imp types.Importer, roots []string) map[string]*types.Package {
	t.Helper()
	out := map[string]*types.Package{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if out[p.Path()] != nil {
			return
		}
		out[p.Path()] = p
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, path := range roots {
		p, err := imp.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		visit(p)
	}
	return out
}

// describe renders what a package exports to its importers as lines
// that do not depend on object identity: its path and name, its import
// list, each scope object, and the method sets of its named types.
func describe(p *types.Package) []string {
	out := []string{"package " + p.Path() + " " + p.Name()}
	for _, dep := range p.Imports() {
		out = append(out, "import "+dep.Path())
	}
	scope := p.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		out = append(out, "object "+types.ObjectString(obj, nil))
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			mset := types.NewMethodSet(typ)
			for i := 0; i < mset.Len(); i++ {
				out = append(out, "method "+mset.At(i).String())
			}
		}
	}
	return out
}

// Import makes the loader a types.Importer for the tests: it walks one
// standard-library root, as TypeCheck does for each import, and waits
// for every check that walk scheduled.
func (l *loader) Import(path string) (*types.Package, error) {
	n := l.std(path)
	l.wg.Wait()
	return n.pkg, n.err
}

// TestStdImporterMatchesSourceImporter is the loader's oracle: over the
// standard-library closure the module imports, it must build the same
// packages as go/importer's "source" importer, which it replaced.
func TestStdImporterMatchesSourceImporter(t *testing.T) {
	roots := moduleStdImports(t)
	got := closure(t, newLoader(token.NewFileSet()), roots)
	want := closure(t, importer.ForCompiler(token.NewFileSet(), "source", nil), roots)
	if len(got) != len(want) {
		t.Errorf("closure has %d packages, source importer's has %d", len(got), len(want))
	}
	objects := 0
	for path, wp := range want {
		gp, ok := got[path]
		if !ok {
			t.Errorf("%s: missing from the loader's closure", path)
			continue
		}
		g, w := describe(gp), describe(wp)
		objects += len(wp.Scope().Names())
		if len(g) != len(w) {
			t.Errorf("%s: %d lines, source importer gives %d", path, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: got %q, source importer gives %q", path, g[i], w[i])
				break
			}
		}
	}
	t.Logf("%d packages, %d objects agree", len(want), objects)
}

// writeModule writes a one-package module importing fmt into a
// temporary directory and returns its root.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":  "module example.com/m\n",
		"main.go": "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Println() }\n",
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestTypeCheckLoadsStdlibCold guards against loader state that outlives
// one TypeCheck call: each call must type-check fmt again, so every
// benchmark repetition and every easyio-vet run pays for a cold load.
func TestTypeCheckLoadsStdlibCold(t *testing.T) {
	root := writeModule(t)
	var fmts []*types.Package
	for range 2 {
		pkgs, err := ParseModule(root)
		if err != nil {
			t.Fatalf("ParseModule: %v", err)
		}
		TypeCheck(pkgs)
		if errs := pkgs[0].TypeErrors; len(errs) > 0 {
			t.Fatalf("type errors: %v", errs)
		}
		imps := pkgs[0].Types.Imports()
		if len(imps) != 1 || imps[0].Path() != "fmt" {
			t.Fatalf("imports %v, want [fmt]", imps)
		}
		fmts = append(fmts, imps[0])
	}
	if fmts[0] == fmts[1] {
		t.Error("two TypeCheck calls share one fmt package: the standard library was not loaded cold")
	}
}

func TestStdImporterMissingPackage(t *testing.T) {
	imp := newLoader(token.NewFileSet())
	for range 2 { // the second import answers from the cache
		p, err := imp.Import("example.com/no/such/package")
		if err == nil || p != nil {
			t.Fatalf("Import of a missing package = (%v, %v), want (nil, error)", p, err)
		}
	}
}

func TestStdImporterCgoPackageIsAnError(t *testing.T) {
	bp, err := build.Default.Import("runtime/cgo", "", 0)
	if err != nil || len(bp.CgoFiles) == 0 {
		t.Skip("runtime/cgo has no cgo files in this configuration")
	}
	_, err = newLoader(token.NewFileSet()).Import("runtime/cgo")
	if err == nil || !strings.Contains(err.Error(), `"runtime/cgo"`) {
		t.Fatalf("Import(runtime/cgo) error = %v, want one naming the package", err)
	}
}

// TestStdImporterSelfImportIsACycle loads a package that imports itself:
// the re-entrant import must see the package still loading and fail
// with a cycle error rather than recurse.
func TestStdImporterSelfImportIsACycle(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "cyc"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package cyc\n\nimport _ \"./cyc\"\n"
	if err := os.WriteFile(filepath.Join(dir, "cyc", "cyc.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	imp := newLoader(token.NewFileSet())
	imp.srcDir = dir // resolve the local path "./cyc" against dir
	_, err := imp.Import("./cyc")
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("self-import error = %v, want an import cycle", err)
	}
}

// TestStdImporterNoBuildableFiles imports a directory whose Go files all
// fall to the file filter: like go/build, the importer must report
// build.NoGoError rather than return no package and no error.
func TestStdImporterNoBuildableFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a_test.go", "_b.go", ".c.go", "d.go"} {
		src := "package empty\n"
		if name == "d.go" {
			src = "//go:build ignore\n\n" + src
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	imp := newLoader(token.NewFileSet())
	imp.srcDir = filepath.Dir(dir)
	p, err := imp.Import("./empty")
	var noGo *build.NoGoError
	if p != nil || !errors.As(err, &noGo) {
		t.Fatalf("Import of a directory without buildable files = (%v, %v), want (nil, *build.NoGoError)", p, err)
	}
}

// TestStdImporterTwoPackageCycle loads ./a, which imports ./b, which
// imports ./a back: the edge that closes the cycle must fail with a
// cycle error, and the load must return rather than have a check wait on
// a node that is waiting on it.
func TestStdImporterTwoPackageCycle(t *testing.T) {
	dir := t.TempDir()
	for _, p := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if err := os.Mkdir(filepath.Join(dir, p[0]), 0o755); err != nil {
			t.Fatal(err)
		}
		src := "package " + p[0] + "\n\nimport _ \"./" + p[1] + "\"\n"
		if err := os.WriteFile(filepath.Join(dir, p[0], p[0]+".go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	imp := newLoader(token.NewFileSet())
	imp.srcDir = dir
	var err error
	returnsWithin(t, func() { _, err = imp.Import("./a") })
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("two-package cycle error = %v, want an import cycle", err)
	}
}

// TestTypeCheckMissingImport checks a module package that imports a path
// nothing provides: TypeCheck must return, with a type error naming the
// path on that package.
func TestTypeCheckMissingImport(t *testing.T) {
	root := writeModule(t)
	src := "package main\n\nimport _ \"example.com/no/such/package\"\n\nfunc main() {}\n"
	if err := os.WriteFile(filepath.Join(root, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := ParseModule(root)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	returnsWithin(t, func() { TypeCheck(pkgs) })
	errs := pkgs[0].TypeErrors
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "example.com/no/such/package") {
		t.Fatalf("type errors %v, want one naming the missing import", errs)
	}
}

// TestTypeCheckModuleSizesFollowGOARCH checks that module packages are
// sized for the target GOARCH, as the standard library is: on 386 a
// uintptr is 4 bytes, where go/types' default sizes say 8.
func TestTypeCheckModuleSizesFollowGOARCH(t *testing.T) {
	defer func(arch string) { build.Default.GOARCH = arch }(build.Default.GOARCH)
	build.Default.GOARCH = "386"
	root := writeModule(t)
	src := "package main\n\nimport \"unsafe\"\n\nconst N = unsafe.Sizeof(uintptr(0))\n\nfunc main() {}\n"
	if err := os.WriteFile(filepath.Join(root, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := ParseModule(root)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	TypeCheck(pkgs)
	if errs := pkgs[0].TypeErrors; len(errs) > 0 {
		t.Fatalf("type errors: %v", errs)
	}
	if got := pkgs[0].Types.Scope().Lookup("N").(*types.Const).Val().String(); got != "4" {
		t.Errorf("unsafe.Sizeof(uintptr(0)) = %s on 386, want 4", got)
	}
}

// returnsWithin fails the test if f has not returned after a minute,
// which here means the loader deadlocked.
func returnsWithin(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the load did not return: a check is waiting on itself")
	}
}

// loadFingerprint parses and type-checks this module at the given
// GOMAXPROCS and renders everything that must not depend on it: the
// FileSet's file sequence (name, base and size of every file, the
// standard library's included), each module package's type errors, and
// every package-scope object, qualified by package path.
func loadFingerprint(t *testing.T, procs int) []string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ParseModule(root)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	TypeCheck(pkgs)
	var out []string
	pkgs[0].Fset.Iterate(func(f *token.File) bool {
		out = append(out, fmt.Sprintf("file %s base %d size %d", f.Name(), f.Base(), f.Size()))
		return true
	})
	for _, pkg := range pkgs {
		out = append(out, "package "+pkg.Path)
		for _, err := range pkg.TypeErrors {
			out = append(out, "error "+err.Error())
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			out = append(out, "object "+types.ObjectString(scope.Lookup(name), nil))
		}
	}
	return out
}

// TestTypeCheckDeterministicAcrossGOMAXPROCS type-checks the module with
// one check at a time and with four at once: parsing stays serial, so the
// FileSet, and with it every token.Pos, must come out the same, and so
// must the type errors and every package's scope.
func TestTypeCheckDeterministicAcrossGOMAXPROCS(t *testing.T) {
	one, four := loadFingerprint(t, 1), loadFingerprint(t, 4)
	if len(one) != len(four) {
		t.Errorf("GOMAXPROCS 1 gives %d lines, GOMAXPROCS 4 gives %d", len(one), len(four))
	}
	for i := range min(len(one), len(four)) {
		if one[i] != four[i] {
			t.Fatalf("line %d: GOMAXPROCS 1 gives %q, GOMAXPROCS 4 gives %q", i, one[i], four[i])
		}
	}
	files := 0
	for _, line := range one {
		if strings.HasPrefix(line, "file ") {
			files++
		}
	}
	t.Logf("%d files, %d lines agree", files, len(one))
}

// TestBuildIncludedMatchesGoBuild checks the loader's file filter
// (goodOSArchFile, then buildIncluded on the parsed file) against
// build.Default.MatchFile over a table of file names and constraints.
func TestBuildIncludedMatchesGoBuild(t *testing.T) {
	names := []string{
		"a.go", "linux.go", "windows.go", "a_linux.go", "a_windows.go", "a_amd64.go",
		"a_arm64.go", "a_linux_amd64.go", "a_linux_arm64.go", "a_windows_amd64.go",
		"a_unix.go", "a_foo_linux.go", "a_linux_foo.go", "a_windows_test.go", "_a.go", ".a.go",
		"a_" + build.Default.GOOS + "_" + build.Default.GOARCH + ".go",
	}
	constraints := []string{
		"", "linux", "windows", "darwin", "android", "unix", "!unix", "amd64", "arm64",
		"amd64 || arm64", "linux && !android", "gc", "gccgo", "cgo", "!cgo",
		"go1.1", "go1.22", "go1.99", "!go1.99", "easyio_invariants", "!easyio_invariants",
		"boringcrypto", "goexperiment.nosuch", build.Default.GOOS, build.Default.GOARCH,
	}
	for i, tag := range build.Default.ToolTags {
		if i == 2 {
			break
		}
		constraints = append(constraints, tag, "!"+tag)
	}
	if n := len(build.Default.ReleaseTags); n > 0 {
		constraints = append(constraints, build.Default.ReleaseTags[n-1])
	}
	dir := t.TempDir()
	fset := token.NewFileSet()
	for _, name := range names {
		for _, c := range constraints {
			src := "package p\n"
			if c != "" {
				src = "//go:build " + c + "\n\n" + src
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			want, err := build.Default.MatchFile(dir, name)
			if err != nil {
				t.Fatalf("MatchFile(%s, %q): %v", name, c, err)
			}
			got := goodOSArchFile(name)
			if got {
				f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
				if err != nil {
					t.Fatal(err)
				}
				got = buildIncluded(f)
			}
			if got != want {
				t.Errorf("%s with %q: included = %v, go/build says %v", name, c, got, want)
			}
		}
	}
}
