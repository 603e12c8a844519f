package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// recorder is a tiny transfer over a set of labels with a union join.
// Every call adds its function name; an if condition p() adds +p to the
// then branch and -p to the else branch; defer and go statements add
// "defer f" and "go f" instead of f; a return snapshots the state into
// exits. step() adds s1, then s2 on a state holding s1, and so on, so
// the number of loop rounds shows in the result. panic and exit end a
// path.
type recorder struct {
	rounds int // loop policy: 0 keeps the entry state, n joins for up to n rounds
	exits  []string
}

type labels = maySet[bool]

func (r *recorder) stmt(s ast.Stmt, st labels) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		st["defer "+calleeName(s.Call)] = true
	case *ast.GoStmt:
		st["go "+calleeName(s.Call)] = true
	case *ast.ReturnStmt:
		r.calls(s, st)
		r.exits = append(r.exits, render(st))
	default:
		r.calls(s, st)
	}
}

func (r *recorder) expr(e ast.Expr, st labels) { r.calls(e, st) }

func (r *recorder) calls(n ast.Node, st labels) {
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			name := calleeName(call)
			if name == "step" {
				k := 1
				for st["s"+strconv.Itoa(k)] {
					k++
				}
				name = "s" + strconv.Itoa(k)
			}
			st[name] = true
		}
		return true
	})
}

func (r *recorder) refine(cond ast.Expr, then, els labels) {
	if call, ok := cond.(*ast.CallExpr); ok {
		then["+"+calleeName(call)] = true
		els["-"+calleeName(call)] = true
	}
}

func (r *recorder) ends(call *ast.CallExpr) bool {
	name := calleeName(call)
	return name == "panic" || name == "exit"
}

func (r *recorder) loop(_ ast.Stmt, entry labels, body func(labels) (labels, bool)) labels {
	if r.rounds == 0 {
		return loopKeep(entry, body)
	}
	return loopJoin(entry, body, r.rounds)
}

func calleeName(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

func render(st labels) string {
	out := make([]string, 0, len(st))
	for k := range st {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// TestFlow pins the shared control flow: the state at the closing brace
// ("dead" when no path reaches it) and the states at each return, in
// walk order.
func TestFlow(t *testing.T) {
	cases := []struct {
		name   string
		rounds int
		src    string
		out    string
		exits  []string
	}{
		{"statement list", 0, `
	a()
	b()
`, "a b", nil},
		{"else if chain", 0, `
	if p() {
		a()
		return
	} else if q() {
		b()
	} else {
		c()
	}
	d()
`, "+q -p -q b c d p q", []string{"+p a p"}},
		{"if init runs before the condition", 0, `
	if x := a(); p() {
		b(x)
	}
`, "+p -p a b p", nil},
		{"switch without default falls past", 0, `
	switch t() {
	case k():
		return
	case 2:
		a()
		return
	}
	b()
`, "b k t", []string{"k t", "a k t"}},
		{"switch whose every arm terminates ends the path", 0, `
	switch {
	case p():
		return
	default:
		panic("x")
	}
	a()
`, "dead", []string{"p"}},
		{"fallthrough carries the state into the next clause", 0, `
	switch {
	case p():
		a()
		fallthrough
	case q():
		return
	}
`, "p q", []string{"a p q"}},
		{"type switch walks its guard", 0, `
	switch v := g().(type) {
	case int:
		a(v)
	}
`, "a g", nil},
		{"select clause starts with its comm statement", 0, `
	select {
	case v := <-ch():
		a(v)
		return
	case send() <- 1:
		b()
	default:
		c()
	}
`, "b c send", []string{"a ch"}},
		{"break in a switch leaves the switch, not the loop", 1, `
	for p() {
		switch {
		case q():
			a()
			break
		}
		return
	}
`, "p", []string{"a p q"}},
		{"labeled break and continue, loop joined once", 1, `
outer:
	for p() {
		for q() {
			if r() {
				a()
				break outer
			}
			if s() {
				b()
				continue outer
			}
			c()
		}
		d()
	}
	e()
`, "+r +s -r -s a b c d e p q r s", nil},
		{"labeled break and continue, loop state kept", 0, `
outer:
	for p() {
		for q() {
			if r() {
				a()
				break outer
			}
			if s() {
				b()
				continue outer
			}
			c()
		}
		d()
	}
	e()
`, "+r a e p q r", nil},
		{"goto ends its path", 0, `
	if p() {
		a()
		goto done
	}
	b()
done:
	c()
`, "-p b c p", nil},
		{"panic and the crash hook end a path, other calls do not", 0, `
	if p() {
		panic("boom")
	}
	if q() {
		exit()
	}
	if r() {
		log()
	}
	a()
`, "+r -p -q -r a log p q r", nil},
		{"defer and go reach the statement hook", 0, `
	defer a()
	go b()
	c()
`, "c defer a go b", nil},
		{"loop state kept, exits inside still recorded", 0, `
	for p() {
		a()
		if q() {
			return
		}
	}
	b()
`, "b p", []string{"+q a p q"}},
		{"loop without a condition may still exit", 0, `
	for {
		a()
	}
	b()
`, "b", nil},
		{"loop joined once", 1, `
	for p() {
		step()
	}
	b()
`, "b p s1", nil},
		{"loop joined for a bounded number of rounds", 4, `
	for p() {
		step()
	}
`, "p s1 s2 s3 s4", nil},
		{"loop join stops at a fixpoint", 4, `
	for p() {
		if q() {
			return
		}
	}
`, "-q p q", []string{"+q p q", "+q -q p q"}},
		{"for post runs after the body and after continue", 1, `
	for i := 0; p(); post() {
		if q() {
			continue
		}
		a(i)
	}
`, "+q -q a p post q", nil},
		{"for post is skipped when no path reaches it", 1, `
	for p(); q(); post() {
		return
	}
`, "p q", []string{"p q"}},
		{"range walks its operand", 1, `
	for _, v := range xs() {
		a(v)
	}
`, "a xs", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), "flow.go", "package p\nfunc f() {"+tc.src+"}\n", 0)
			if err != nil {
				t.Fatal(err)
			}
			r := &recorder{rounds: tc.rounds}
			st, live := walkFlow(r, f.Decls[0].(*ast.FuncDecl).Body, labels{})
			out := "dead"
			if live {
				out = render(st)
			}
			if out != tc.out {
				t.Errorf("out = %q, want %q", out, tc.out)
			}
			if !reflect.DeepEqual(r.exits, tc.exits) {
				t.Errorf("exits = %q, want %q", r.exits, tc.exits)
			}
		})
	}
}
