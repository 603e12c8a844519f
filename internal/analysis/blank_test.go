package analysis

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var blankGOROOT = flag.Bool("blank-goroot", false, "also check blankFuncBodies on every parseable .go file under $GOROOT/src (slow)")

// checkBlanked blanks a copy of src and fails t unless the result keeps
// src's length, newlines and declarations: every declaration and body
// brace sits at the same offset, and, printed with go/printer, the
// blanked file equals the original with each function body emptied. It
// returns the blanked source, or nil when src itself does not parse.
func checkBlanked(t *testing.T, name string, src []byte) []byte {
	t.Helper()
	b := bytes.Clone(src)
	blankFuncBodies(b)
	if len(b) != len(src) || bytes.Count(b, []byte("\n")) != bytes.Count(src, []byte("\n")) {
		t.Errorf("%s: blanking changed the length or the newline count", name)
	}
	fset := token.NewFileSet()
	want, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil
	}
	got, err := parser.ParseFile(fset, name, b, parser.SkipObjectResolution)
	if err != nil {
		t.Errorf("%s: the blanked file does not parse: %v", name, err)
		return nil
	}
	if g, w := declOffsets(fset, got), declOffsets(fset, want); !slices.Equal(g, w) {
		t.Errorf("%s: declarations moved:\n got %v\nwant %v", name, g, w)
	}
	if g, w := printEmptied(t, fset, got), printEmptied(t, fset, want); g != w {
		t.Errorf("%s: declarations differ after blanking:\n--- got\n%s\n--- want\n%s", name, g, w)
	}
	return b
}

// declOffsets lists the file offsets of each top-level declaration's
// start and end and of each function body's braces.
func declOffsets(fset *token.FileSet, f *ast.File) []int {
	var out []int
	for _, d := range f.Decls {
		out = append(out, fset.Position(d.Pos()).Offset, fset.Position(d.End()).Offset)
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fset.Position(fd.Body.Lbrace).Offset, fset.Position(fd.Body.Rbrace).Offset)
		}
	}
	return out
}

// printEmptied empties f's function bodies and prints it.
func printEmptied(t *testing.T, fset *token.FileSet, f *ast.File) string {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fd.Body.List = nil
		}
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestBlankFuncBodies(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		kept []string // functions whose bodies must survive
	}{
		{name: "struct, interface and map results", src: `package p

func s() struct{} { return struct{}{} }
func i() interface{ M() } { var x interface{ M() }; return x }
func m() map[string]struct{} {
	return map[string]struct{}{"a": {}}
}
func n() (x struct {
	a int
}) {
	x.a = 1
	return
}
func q(x struct{ a int }, f func() struct{}) {}
`},
		{name: "generics", src: `package p

type Number interface{ ~int | ~float64 }

func Sum[T interface{ ~int }](xs []T) (s T) {
	for _, x := range xs {
		s += x
	}
	return s
}
func Map[K comparable, V any, M ~map[K]V](m M) []K { return nil }
func Zero[T Number]() T { var z T; return z }
`},
		{name: "methods", src: `package p

type T struct{ n int }

func (t *T) Get() int { if t == nil { return 0 }; return t.n }
func (T) Set(n int) {
	_ = n
}
func (t *T) Iface() interface{ Get() int } { return t }
`},
		{name: "body-less declarations", src: `package p

func stub()
func g() int { return 1 }
func stub2(x int) int
var v = 1
func h() { stub() }
func stub3() struct{}
type U int
`},
		{name: "one-line bodies", src: "package p\n\nfunc f() {}\nfunc g() { f() }\nfunc h() int { return 2 }\n"},
		{name: "braces in literals and comments", src: "package p\n\n" +
			"var open, close = \"{\", '}'\n" +
			"var raw = `}\n{{`\n" +
			"// func x() {\n" +
			"/* } */\n" +
			"func f() string {\n" +
			"\ts := \"}\\\"}\" + `{` + string('{') + string('\\'')\n" +
			"\t// }}}\n" +
			"\t/* { */\n" +
			"\treturn s\n" +
			"}\n" +
			"func g() { _ = \"{\" }\n" +
			"var w = 1 /* {\n */ func k() { _ = w }\n"},
		{name: "function literals", src: `package p

var f = func() int {
	return 1
}
var g = func() func() {
	return func() {}
}()
var (
	h = func() {}
)
var l =
	func() int { return 2 }

func k() { f() }
`},
		{name: "line directive", src: "package p\n\nfunc f() {\n//line other.go:10\n\t_ = 1\n}\nfunc g() {\n\t/*line x.go:3:1*/ _ = 2\n}\nfunc h() { _ = 3 }\n",
			kept: []string{"f", "g"}},
		{name: "CRLF line endings", src: "package p\r\n\r\nfunc f() int {\r\n\treturn 1\r\n}\r\n\r\nfunc g()\r\nfunc h() { f() }\r\n"},
		{name: "semicolons and parenthesised declarations", src: `package p

import ("fmt")

var x = fmt.Sprint; func f() { x() }; func g()
func stub(); var v = [1]int{1}
const (c = iota; d)
func (T) m() {}; type T int
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := checkBlanked(t, "p.go", []byte(tc.src))
			if b == nil {
				t.Fatal("the source does not parse")
			}
			f, err := parser.ParseFile(token.NewFileSet(), "p.go", b, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if kept := slices.Contains(tc.kept, fd.Name.Name); kept != (len(fd.Body.List) > 0) {
					t.Errorf("func %s: body has %d statements, want it kept = %v", fd.Name.Name, len(fd.Body.List), kept)
				}
			}
		})
	}
}

// TestBlankFuncBodiesStdClosure checks blankFuncBodies on every file
// the loader builds for the module's standard-library closure.
// -blank-goroot widens it to every parseable .go file under
// $GOROOT/src.
func TestBlankFuncBodiesStdClosure(t *testing.T) {
	var paths []string
	if *blankGOROOT {
		err := filepath.WalkDir(filepath.Join(build.Default.GOROOT, "src"), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				paths = append(paths, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		imp := newLoader(token.NewFileSet())
		for path := range closure(t, imp, moduleStdImports(t)) {
			if path == "unsafe" {
				continue
			}
			dir := filepath.Join(imp.srcDir, path)
			ps, err := parseDirs(token.NewFileSet(), []string{dir}, false)
			if err != nil || ps[0] == nil {
				t.Fatalf("parseDirs(%s) = %v, %v", dir, ps, err)
			}
			p := ps[0]
			for _, f := range p.Files {
				paths = append(paths, p.Fset.Position(f.Package).Filename)
			}
		}
	}
	checked := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if checkBlanked(t, path, src) != nil {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no file checked")
	}
	t.Logf("%d of %d files parse and blank cleanly", checked, len(paths))
}
