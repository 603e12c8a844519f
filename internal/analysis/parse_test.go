package analysis

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// serialParseDirs is the reference parseDirs is held to: one
// parser.ParseFile per file, straight into fset, in walk order. It
// returns the files buildIncluded keeps, in that order.
func serialParseDirs(fset *token.FileSet, dirs []string, declsOnly bool) ([]*ast.File, error) {
	var files []*ast.File
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") ||
				!goodOSArchFile(fn) {
				continue
			}
			path := filepath.Join(dir, fn)
			var src any // nil: the parser reads the file
			if declsOnly {
				b, err := os.ReadFile(path)
				if err != nil {
					return nil, err
				}
				blankFuncBodies(b)
				src = b
			}
			f, err := parser.ParseFile(fset, path, src, parseMode)
			if err != nil {
				return nil, err
			}
			if buildIncluded(f) {
				files = append(files, f)
			}
		}
	}
	return files, nil
}

// serialParseModule parses the module at root with serialParseDirs.
func serialParseModule(t *testing.T, root string) (*token.FileSet, []*ast.File) {
	t.Helper()
	dirs, err := moduleDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files, err := serialParseDirs(fset, dirs, false)
	if err != nil {
		t.Fatalf("serial parse: %v", err)
	}
	return fset, files
}

// moduleFiles lists the files of pkgs.
func moduleFiles(pkgs []*Package) []*ast.File {
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	return files
}

// fileTable renders every file of fset: its name, base, size and line
// table (a count and a digest).
func fileTable(fset *token.FileSet) []string {
	var out []string
	fset.Iterate(func(f *token.File) bool {
		lines := f.Lines()
		out = append(out, fmt.Sprintf("file %s base %d size %d lines %d %x",
			f.Name(), f.Base(), f.Size(), len(lines), sha256.Sum256(fmt.Append(nil, lines))))
		return true
	})
	return out
}

// parseDump renders everything a parse fixes: fset's file table, then
// each of files in base order with a digest of every node's Pos and End
// and the position Pos resolves to, line directives applied, and one of
// every comment's Slash and Text.
func parseDump(fset *token.FileSet, files []*ast.File) []string {
	out := fileTable(fset)
	files = append([]*ast.File(nil), files...)
	sort.Slice(files, func(i, j int) bool { return files[i].FileStart < files[j].FileStart })
	for _, f := range files {
		nodes, comments := sha256.New(), sha256.New()
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fmt.Fprintf(nodes, "%d %d %s\n", n.Pos(), n.End(), fset.Position(n.Pos()))
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fmt.Fprintf(comments, "%d %q\n", c.Slash, c.Text)
			}
		}
		out = append(out, fmt.Sprintf("ast %s nodes %x comments %x",
			fset.Position(f.Package).Filename, nodes.Sum(nil), comments.Sum(nil)))
	}
	return out
}

// sameDump fails the test at the first line where got and want differ.
func sameDump(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s, line %d:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
}

// TestParseModuleMatchesSerialParse holds the parallel parse to the
// serial one: ParseModule over this module must give every file the
// same base, size and line table, and every node and comment the same
// position, as one parser.ParseFile per file in walk order, at any
// GOMAXPROCS. Then the standard-library closure TypeCheck parses must
// give the FileSet the file table a serial parse of its directories, in
// the order the loader walked them, gives. Its ASTs do not outlive
// TypeCheck; their positions follow from the bases and line tables, as
// the module half shows.
func TestParseModuleMatchesSerialParse(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	serialFset, serialFiles := serialParseModule(t, root)
	want := parseDump(serialFset, serialFiles)
	moduleBase := serialFset.Base()
	var wantStd []string
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pkgs, err := ParseModule(root)
			if err != nil {
				t.Fatalf("ParseModule: %v", err)
			}
			fset := pkgs[0].Fset
			sameDump(t, "module parse", parseDump(fset, moduleFiles(pkgs)), want)
			if testing.Short() {
				return
			}

			TypeCheck(pkgs)
			got := fileTable(fset)
			if wantStd == nil {
				// The loader's walk, not the parse, fixes the order of
				// the std directories; parse them serially in it.
				var dirs []string
				fset.Iterate(func(f *token.File) bool {
					if f.Base() >= moduleBase {
						if dir := filepath.Dir(f.Name()); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
							dirs = append(dirs, dir)
						}
					}
					return true
				})
				stdFset, _ := serialParseModule(t, root)
				if _, err := serialParseDirs(stdFset, dirs, true); err != nil {
					t.Fatalf("serial std parse: %v", err)
				}
				wantStd = fileTable(stdFset)
				t.Logf("%d module files, %d std directories, %d files in all", len(serialFiles), len(dirs), len(wantStd))
			}
			sameDump(t, "module and std closure after TypeCheck", got, wantStd)
		})
	}
}

// TestParseModuleLineDirectives parses a module whose files hold //line
// and /*line directives, between and beside files that hold none: every
// position through a directive must resolve as a serial parse resolves
// it, which the private FileSets cannot carry over (SetLines copies no
// line info).
func TestParseModuleLineDirectives(t *testing.T) {
	root := writeFiles(t, map[string]string{
		"go.mod":   "module example.com/m\n",
		"a/a.go":   "package a\n\nfunc A() int { return 1 } //line not-a-directive.go:5\n\nfunc B() {\n\t//line indented.go:9\n}\n",
		"a/gen.go": "package a\n\n//line gen.y:100\nfunc Gen() int {\n\treturn /*line gen.y:200:7*/2\n}\n",
		"a/z.go":   "package a\n\nfunc Z() int { return 3 }\n",
		"b/b.go":   "package b\n\nfunc B() {}\n",
	})
	serialFset, serialFiles := serialParseModule(t, root)
	want := parseDump(serialFset, serialFiles)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pkgs, err := ParseModule(root)
			if err != nil {
				t.Fatalf("ParseModule: %v", err)
			}
			fset := pkgs[0].Fset
			sameDump(t, "parse", parseDump(fset, moduleFiles(pkgs)), want)
			var gen *ast.FuncDecl
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, d := range f.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Gen" {
							gen = fd
						}
					}
				}
			}
			if gen == nil {
				t.Fatal("func Gen not parsed")
			}
			ret := gen.Body.List[0].(*ast.ReturnStmt).Results[0]
			for _, c := range []struct {
				pos  token.Pos
				want string
			}{{gen.Pos(), "gen.y:100"}, {ret.Pos(), "gen.y:200:7"}} {
				if got := fset.Position(c.pos); filepath.Base(got.String()) != c.want {
					t.Errorf("position %s, want %s", got, c.want)
				}
			}
		})
	}
}

// TestHasLineDirective pins which bytes send a file to the merge: a
// //line comment only at the start of a line, as the scanner reads it,
// and a /*line comment anywhere, strings and other comments included.
func TestHasLineDirective(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"//line a.go:1\npackage p\n", true},
		{"package p\n//line a.go:1\n", true},
		{"package p\n\t//line a.go:1\n", false},
		{"package p // //line a.go:1\n", false},
		{"package p\nvar x = /*line a.go:1*/ 1\n", true},
		{"package p\nvar s = \"/*line a.go:1*/\"\n", true},
		{"package p // the line directive (/*line) and the deadline \n", false},
		{"line ", false},
	} {
		if got := hasLineDirective([]byte(c.src)); got != c.want {
			t.Errorf("hasLineDirective(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestParseModuleFirstErrorInWalkOrder gives two packages syntax errors:
// ParseModule must return the first in walk order, as a serial parse
// does, however the workers finish. The first error sits at the end of a
// long file and the second at the start of a short one, so the second is
// likely found first.
func TestParseModuleFirstErrorInWalkOrder(t *testing.T) {
	var long strings.Builder
	long.WriteString("package a\n\n")
	for i := range 2000 {
		fmt.Fprintf(&long, "func F%d() int { return %d }\n", i, i)
	}
	long.WriteString("func Broken( {\n")
	root := writeFiles(t, map[string]string{
		"go.mod":   "module example.com/m\n",
		"a/a.go":   long.String(),
		"b/b.go":   "package b\n\nfunc (\n",
		"c/c.go":   "package c\n",
		"a/ok.go":  "package a\n",
		"zz/zz.go": "package zz\n\nvar = 1\n",
	})
	dirs, err := moduleDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	_, want := serialParseDirs(token.NewFileSet(), dirs, false)
	if want == nil || !strings.Contains(want.Error(), filepath.Join("a", "a.go")) {
		t.Fatalf("serial parse error %v, want one in a/a.go", want)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for range 5 {
				if _, err := ParseModule(root); err == nil || err.Error() != want.Error() {
					t.Fatalf("ParseModule error %v, want %v", err, want)
				}
			}
		})
	}
}

// BenchmarkParseModule measures the set-up of a cold easyio-vet run:
// ParseModule over this module, on GOMAXPROCS parse workers.
func BenchmarkParseModule(b *testing.B) {
	root, err := filepath.Abs("../..")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseModule(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildModule measures the module-wide part of a cold
// easyio-vet run: BuildModule over this module, already parsed and
// type-checked, with its passes on GOMAXPROCS workers (run it with
// -cpu 1,2 to see the fan-out).
func BenchmarkBuildModule(b *testing.B) {
	root, err := filepath.Abs("../..")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildModule(pkgs)
	}
}
