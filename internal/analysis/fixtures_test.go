package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// fixturePkg type-checks one inline source file as a package for
// analyzer tests. path defaults to "fixture"; analyzers that exempt
// packages by import path can pass their own.
func fixturePkg(t *testing.T, path, src string) *Package {
	t.Helper()
	return fixturePkgFile(t, path, "fixture.go", src)
}

// fixturePkgFile is fixturePkg with an explicit filename, for analyzers
// that scope by file basename (recoverypurity keys on recover.go).
func fixturePkgFile(t *testing.T, path, filename, src string) *Package {
	t.Helper()
	if path == "" {
		path = "fixture"
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var terrs []error
	conf := types.Config{
		Importer: newLoader(fset),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, []*ast.File{f}, info)
	if len(terrs) > 0 {
		t.Fatalf("fixture does not type-check: %v", terrs)
	}
	return &Package{
		Path:  path,
		Name:  f.Name.Name,
		Fset:  fset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	}
}

// fixtureSrc is one package of a multi-package fixture module.
type fixtureSrc struct {
	Path string // import path, e.g. "example.com/m/internal/sim"
	Src  string
}

// fixtureModule type-checks several inline packages as one module (list
// dependencies before their importers) with TypeCheck, as the loader
// does. Analyzers that classify by module membership (simtime's host
// mode) see modPath as the module path.
func fixtureModule(t *testing.T, modPath string, srcs []fixtureSrc) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []*Package
	for i, s := range srcs {
		f, err := parser.ParseFile(fset, "fixture"+itoa(i)+".go", s.Src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", s.Path, err)
		}
		pkgs = append(pkgs, &Package{
			Path:    s.Path,
			Name:    f.Name.Name,
			Fset:    fset,
			Files:   []*ast.File{f},
			modPath: modPath,
		})
	}
	TypeCheck(pkgs)
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s does not type-check: %v", pkg.Path, pkg.TypeErrors)
		}
	}
	return pkgs
}

// runFixture runs one analyzer over one fixture and returns the
// surviving diagnostics.
func runFixture(t *testing.T, a *Analyzer, path, src string) []Diagnostic {
	t.Helper()
	pkg := fixturePkg(t, path, src)
	return RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
}

// wantFindings asserts the diagnostic count and that every diagnostic
// carries the analyzer's name and a position.
func wantFindings(t *testing.T, diags []Diagnostic, want int, analyzer string) {
	t.Helper()
	if len(diags) != want {
		t.Fatalf("got %d finding(s), want %d:\n%v", len(diags), want, diags)
	}
	for _, d := range diags {
		if d.Analyzer != analyzer {
			t.Errorf("finding from %q, want %q", d.Analyzer, analyzer)
		}
		if d.Pos.Line == 0 {
			t.Errorf("finding has no position: %v", d)
		}
	}
}
