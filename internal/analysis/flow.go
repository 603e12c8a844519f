package analysis

import (
	"go/ast"
	"go/token"
	"maps"
)

// This file is the one control-flow walker behind every path-sensitive
// analysis: summaries (summary.go, whose held-lock state lockbalance
// reports), the typestate engine (typestate.go), lockorder and
// atomichygiene. The walker interprets Go's
// structured control flow over the AST — statement lists, if/else,
// switch, type switch and select, for and range loops, labels,
// break/continue/fallthrough/goto, and paths that end — and hands every
// other statement and expression to the analysis' transfer hooks. Each
// analysis brings only its abstract state (a flowState) and its hooks (a
// transfer), so the semantics of a break, a label or a dead path are
// written once.
//
// Paths are (state, live) pairs: live is false once a path has ended (a
// return, a call the analysis says ends the path, or a jump), and a dead
// path contributes nothing at a join. A jump hands its state to its
// target: break to the end of the loop, switch or select it leaves,
// continue to the loop head, fallthrough to the next clause. goto ends
// its path: the walker follows only structured control flow. A loop
// always may exit normally, even `for {}`: the loop policy approximates
// the iteration count, and exits recorded inside the body stay sound.

// flowState is an analysis' abstract state along one control-flow path.
// Join merges two live paths into a fresh state and leaves both
// operands unchanged; Equal detects a loop fixpoint.
type flowState[S any] interface {
	Clone() S
	Join(S) S
	Equal(S) bool
}

// transfer is what an analysis supplies to the walker. Hooks update the
// state they are handed in place.
type transfer[S any] interface {
	// stmt applies a statement without control flow of its own: an
	// expression, assignment, declaration, inc/dec or send statement, a
	// defer, a go statement, or a return (after which the path ends).
	// Init and post statements, select comm statements and type-switch
	// guards come here too.
	stmt(s ast.Stmt, st S)
	// expr applies an expression evaluated for control flow: an if or
	// loop condition, a switch tag, a case expression or a range operand.
	expr(e ast.Expr, st S)
	// refine narrows the two successor states of an if condition.
	refine(cond ast.Expr, then, els S)
	// ends reports whether a call statement ends its path (a crash).
	ends(call *ast.CallExpr) bool
	// loop is the loop-exit policy: the state after a loop entered in
	// entry. body walks one iteration from a state and returns the state
	// that reaches the loop head again, false when no path does. States
	// that break out of the loop are joined in by the walker.
	loop(s ast.Stmt, entry S, body func(S) (S, bool)) S
}

// walkFlow walks a function body from entry. It returns the state at the
// closing brace, and false when no path reaches it.
func walkFlow[S flowState[S]](t transfer[S], body *ast.BlockStmt, entry S) (S, bool) {
	f := &flow[S]{t: t}
	return f.block(body.List, entry)
}

type flow[S flowState[S]] struct {
	t transfer[S]
	// targets are the enclosing break/continue targets, innermost last.
	targets []*jumpTarget[S]
}

// jumpTarget collects the states that jump to one loop, switch or
// select statement.
type jumpTarget[S any] struct {
	label string
	loop  bool // a continue may target it
	brk   []S
	cont  []S
	fall  []S
}

func (f *flow[S]) block(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var live bool
		if st, live = f.stmt(s, "", st); !live {
			return st, false
		}
	}
	return st, true
}

// stmt walks one statement; label names it when it is labeled.
func (f *flow[S]) stmt(s ast.Stmt, label string, st S) (S, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.block(s.List, st)
	case *ast.LabeledStmt:
		return f.stmt(s.Stmt, s.Label.Name, st)
	case *ast.IfStmt:
		return f.ifStmt(s, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return f.branches(s, label, st)
	case *ast.ForStmt, *ast.RangeStmt:
		return f.loop(s, label, st)
	case *ast.BranchStmt:
		f.jump(s, st)
		return st, false
	}
	f.t.stmt(s, st)
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return st, false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && f.t.ends(call) {
			return st, false
		}
	}
	return st, true
}

func (f *flow[S]) ifStmt(s *ast.IfStmt, st S) (S, bool) {
	if s.Init != nil {
		f.t.stmt(s.Init, st)
	}
	f.t.expr(s.Cond, st)
	then, els := st.Clone(), st
	f.t.refine(s.Cond, then, els)
	then, thenLive := f.block(s.Body.List, then)
	elsLive := true
	if s.Else != nil {
		els, elsLive = f.stmt(s.Else, "", els)
	}
	return joinLive(then, thenLive, els, elsLive)
}

// branches walks a switch, type switch or select: every clause from a
// copy of the entry state, the live outcomes joined. Without a default
// clause the entry state also falls past the statement. The case
// expressions of a switch are applied to the entry state, before any
// clause runs; a select clause starts with its comm statement.
func (f *flow[S]) branches(s ast.Stmt, label string, st S) (S, bool) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			f.t.stmt(s.Init, st)
		}
		if s.Tag != nil {
			f.t.expr(s.Tag, st)
		}
		for _, c := range s.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				f.t.expr(e, st)
			}
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f.t.stmt(s.Init, st)
		}
		f.t.stmt(s.Assign, st)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	tgt := f.push(label, false)
	var out S
	live, hasDefault := false, false
	for _, c := range body.List {
		cst := st.Clone()
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			list = c.Body
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
			if c.Comm != nil {
				f.t.stmt(c.Comm, cst)
			}
			list = c.Body
		}
		cst, _ = joinAll(cst, true, tgt.fall)
		tgt.fall = nil
		o, l := f.block(list, cst)
		out, live = joinLive(out, live, o, l)
	}
	if !hasDefault {
		out, live = joinLive(out, live, st, true)
	}
	f.pop()
	return joinAll(out, live, tgt.brk)
}

// loop walks a for or range loop. One iteration is the body, then the
// post statement on every path that reaches the loop head again.
func (f *flow[S]) loop(s ast.Stmt, label string, st S) (S, bool) {
	var body *ast.BlockStmt
	var post ast.Stmt
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			f.t.stmt(s.Init, st)
		}
		if s.Cond != nil {
			f.t.expr(s.Cond, st)
		}
		body, post = s.Body, s.Post
	case *ast.RangeStmt:
		f.t.expr(s.X, st)
		body = s.Body
	}
	tgt := f.push(label, true)
	exit := f.t.loop(s, st, func(in S) (S, bool) {
		out, live := f.block(body.List, in.Clone())
		out, live = joinAll(out, live, tgt.cont)
		tgt.cont = nil
		if live && post != nil {
			f.t.stmt(post, out)
		}
		return out, live
	})
	f.pop()
	return joinAll(exit, true, tgt.brk)
}

// jump hands a break, continue or fallthrough state to its target.
func (f *flow[S]) jump(s *ast.BranchStmt, st S) {
	if s.Tok == token.GOTO {
		return
	}
	for i := len(f.targets) - 1; i >= 0; i-- {
		t := f.targets[i]
		if s.Label != nil && s.Label.Name != t.label || s.Tok == token.CONTINUE && !t.loop {
			continue
		}
		switch s.Tok {
		case token.BREAK:
			t.brk = append(t.brk, st)
		case token.CONTINUE:
			t.cont = append(t.cont, st)
		case token.FALLTHROUGH:
			t.fall = append(t.fall, st)
		}
		return
	}
}

func (f *flow[S]) push(label string, loop bool) *jumpTarget[S] {
	t := &jumpTarget[S]{label: label, loop: loop}
	f.targets = append(f.targets, t)
	return t
}

func (f *flow[S]) pop() { f.targets = f.targets[:len(f.targets)-1] }

// joinLive joins two path outcomes; a dead path contributes nothing.
func joinLive[S flowState[S]](a S, aLive bool, b S, bLive bool) (S, bool) {
	switch {
	case !aLive:
		return b, bLive
	case !bLive:
		return a, true
	}
	return a.Join(b), true
}

// joinAll joins the live jump states sts into an outcome, in order.
func joinAll[S flowState[S]](acc S, live bool, sts []S) (S, bool) {
	for _, s := range sts {
		acc, live = joinLive(acc, live, s, true)
	}
	return acc, live
}

// loopKeep is the loop policy of analyses that assume every iteration
// restores its entry state: the body is walked once for what it reports,
// and the loop leaves the entry state unchanged.
func loopKeep[S any](entry S, body func(S) (S, bool)) S {
	body(entry)
	return entry
}

// loopJoin joins the state reaching the loop head again into the entry
// state, for at most rounds rounds or until it is stable.
func loopJoin[S flowState[S]](entry S, body func(S) (S, bool), rounds int) S {
	for i := 0; i < rounds; i++ {
		out, live := body(entry)
		if !live {
			break
		}
		next := entry.Join(out)
		stable := next.Equal(entry)
		entry = next
		if stable {
			break
		}
	}
	return entry
}

// eachCall hands every call expression under n to call, in source order.
// Function literals run in their own frame and are not entered; lit, when
// not nil, is handed each one instead.
func eachCall(n ast.Node, call func(*ast.CallExpr), lit func(*ast.FuncLit)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if lit != nil {
				lit(x)
			}
			return false
		case *ast.CallExpr:
			call(x)
		}
		return true
	})
}

// mustSet and maySet are string-keyed sets with a value riding along
// from the first operand of a join: a mustSet keeps the keys present on
// both paths, a maySet the keys present on either.
type (
	mustSet[V comparable] map[string]V
	maySet[V comparable]  map[string]V
)

func (s mustSet[V]) Clone() mustSet[V]       { return maps.Clone(s) }
func (s mustSet[V]) Equal(o mustSet[V]) bool { return maps.Equal(s, o) }
func (s mustSet[V]) Join(o mustSet[V]) mustSet[V] {
	out := mustSet[V]{}
	for k, v := range s {
		if _, ok := o[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (s maySet[V]) Clone() maySet[V]       { return maps.Clone(s) }
func (s maySet[V]) Equal(o maySet[V]) bool { return maps.Equal(s, o) }
func (s maySet[V]) Join(o maySet[V]) maySet[V] {
	out := maps.Clone(s)
	for k, v := range o {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}
