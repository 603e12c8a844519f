package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// bannedAlways are the wall-clock entry points that block or schedule on
// host timing. They are forbidden everywhere in the module, including
// host harness code: a harness that sleeps on the host clock couples
// benchmark wall time to machine load for no benefit.
var bannedAlways = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// bannedObserve merely read the host clock. In simulation packages they
// are as forbidden as Sleep — one time.Now() in a filesystem silently
// breaks bit-for-bit replay. In host packages (cmd/, examples/,
// internal/bench) reading wall time is legitimate telemetry; what is
// forbidden is the observed value influencing the simulation, which the
// taint pass below checks.
var bannedObserve = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// Simtime forbids wall-clock time in simulation code. Everything in this
// module advances on the virtual clock (sim.Time); a single time.Now()
// in a workload or filesystem silently breaks bit-for-bit replay.
//
// Host packages get a def-use dataflow instead of a categorical ban:
// time.Now/Since/Until seed a taint set, and a finding is reported only
// when a tainted value reaches a sink that could steer the simulation —
// a control-flow condition, an argument in a call into a simulation
// package, a conversion to a simulation-package type, or a store into a
// simulation-package struct field. Wall-clock telemetry that stays in
// host-side reports needs no //easyio:allow. The taint is file-scoped:
// a wall-clock value laundered through a cross-file helper or an
// interface is not tracked, which is why the observe set stays
// categorically banned inside simulation packages themselves.
var Simtime = &Analyzer{
	Name: "simtime",
	Doc:  "forbid wall-clock time (time.Now/Sleep/Since/...) — use the virtual sim.Time clock",
	Run:  runSimtime,
}

// hostPkg reports whether an import path is host harness territory:
// commands, examples, the benchmark driver, and the analysis framework
// itself (its fact cache timestamps LRU entries with wall time).
// Everything else in the module is simulation code under the categorical
// ban.
func hostPkg(path string) bool {
	return strings.Contains(path, "/cmd/") || strings.Contains(path, "/examples/") ||
		strings.HasSuffix(path, "/internal/bench") ||
		strings.HasSuffix(path, "/internal/analysis")
}

func runSimtime(pass *Pass) {
	info := pass.Pkg.Info
	// Taint needs type information; without it even host packages fall
	// back to the categorical ban (conservative, and the run is already
	// failing on type errors anyway).
	host := hostPkg(pass.Pkg.Path) && info != nil
	pass.walkFiles(func(f *ast.File) {
		timeName := timeImportName(f)
		if timeName == "" {
			return
		}
		isTimeSel := func(n ast.Node) (*ast.SelectorExpr, string) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return nil, ""
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != timeName {
				return nil, ""
			}
			// With type info, confirm the identifier really is the
			// package (not a shadowing local).
			if info != nil {
				if obj, ok := info.Uses[id]; ok {
					if _, isPkg := obj.(*types.PkgName); !isPkg {
						return nil, ""
					}
				}
			}
			return sel, sel.Sel.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, name := isTimeSel(n)
			if sel == nil {
				return true
			}
			if bannedAlways[name] || (bannedObserve[name] && !host) {
				pass.Reportf(sel.Pos(), "wall-clock time.%s in simulation code; use the virtual clock (sim.Time, Engine.Now, Proc.Sleep)", name)
			}
			return true
		})
		if host {
			simtimeHostTaint(pass, f, isTimeSel)
		}
	})
}

// timeImportName resolves the local name of the "time" import in one
// file, or "" when the package is not imported (or blank-imported).
func timeImportName(f *ast.File) string {
	for _, spec := range f.Imports {
		if strings.Trim(spec.Path.Value, `"`) != "time" {
			continue
		}
		name := "time"
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == "_" {
			return ""
		}
		return name
	}
	return ""
}

// simtimeHostTaint runs the host-package dataflow: seed from
// time.Now/Since/Until, propagate through the file's assignments, and
// report tainted values reaching simulation-steering sinks.
func simtimeHostTaint(pass *Pass, f *ast.File, isTimeSel func(ast.Node) (*ast.SelectorExpr, string)) {
	info := pass.Pkg.Info
	ts := newTaintSet(info, func(call *ast.CallExpr) bool {
		_, name := isTimeSel(ast.Unparen(call.Fun))
		return bannedObserve[name]
	})
	ts.propagate(f)

	simObj := func(obj types.Object) bool {
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		path := obj.Pkg().Path()
		mod := pass.Pkg.modPath
		inModule := path == mod || strings.HasPrefix(path, mod+"/")
		return inModule && !hostPkg(path)
	}
	simNamed := func(t types.Type) (string, bool) {
		named, ok := t.(*types.Named)
		if !ok || !simObj(named.Obj()) {
			return "", false
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name(), true
	}
	report := func(pos ast.Node, sink string) {
		pass.Reportf(pos.Pos(), "wall-clock value (from time.Now/Since/Until) reaches %s; only the virtual clock (sim.Time) may steer the simulation", sink)
	}
	cond := func(e ast.Expr) {
		if e != nil && ts.tainted(e) {
			report(e, "a control-flow condition")
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			cond(n.Cond)
		case *ast.ForStmt:
			cond(n.Cond)
		case *ast.SwitchStmt:
			cond(n.Tag)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				if !ts.tainted(rhs) {
					continue
				}
				if tv, ok := info.Types[sel.X]; ok {
					base := tv.Type
					if ptr, isPtr := base.(*types.Pointer); isPtr {
						base = ptr.Elem()
					}
					if name, ok := simNamed(base); ok {
						report(lhs, "a field of simulation type "+name)
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if name, ok := simNamed(tv.Type); ok {
					for _, elt := range n.Elts {
						v := elt
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							v = kv.Value
						}
						if ts.tainted(v) {
							report(v, "a field of simulation type "+name)
						}
					}
				}
			}
		case *ast.CallExpr:
			// Conversion to a simulation-package named type.
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if name, ok := simNamed(tv.Type); ok && len(n.Args) == 1 && ts.tainted(n.Args[0]) {
					report(n.Args[0], "a conversion to simulation type "+name)
				}
				return true
			}
			// Call into a simulation package: static callee declared
			// there, or method on a receiver of a simulation type.
			target := ""
			if fn := staticCallee(info, n); fn != nil && simObj(fn) {
				target = fn.Pkg().Name() + "." + fn.Name()
			} else if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && !tv.IsType() {
					base := tv.Type
					if ptr, isPtr := base.(*types.Pointer); isPtr {
						base = ptr.Elem()
					}
					if name, ok := simNamed(base); ok {
						target = name + "." + sel.Sel.Name
					}
				}
			}
			if target != "" {
				for _, arg := range n.Args {
					if ts.tainted(arg) {
						report(arg, "a call into simulation code ("+target+")")
					}
				}
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Def-use taint tracking (file-scoped) for the host-package mode: it
// proves that a wall-clock value flows only into host telemetry and never
// into simulation input.

// taintSet tracks which objects and expressions of one file carry a
// value derived from a seed expression (e.g. a time.Now() result).
type taintSet struct {
	info *types.Info
	objs map[types.Object]bool
	// seed reports whether a call expression originates a tainted value.
	seed func(*ast.CallExpr) bool
}

func newTaintSet(info *types.Info, seed func(*ast.CallExpr) bool) *taintSet {
	return &taintSet{info: info, objs: map[types.Object]bool{}, seed: seed}
}

// propagate runs the def-use fixpoint over every assignment in the file
// (closures included): any object assigned from a tainted expression
// becomes tainted.
func (t *taintSet) propagate(f *ast.File) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if t.tainted(n.Rhs[i]) && t.markLHS(lhs) {
							changed = true
						}
					}
				} else if anyTainted(t, n.Rhs) {
					for _, lhs := range n.Lhs {
						if t.markLHS(lhs) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if t.tainted(n.Values[i]) && t.markIdent(name) {
							changed = true
						}
					}
				} else if anyTainted(t, n.Values) {
					for _, name := range n.Names {
						if t.markIdent(name) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
}

func anyTainted(t *taintSet, exprs []ast.Expr) bool {
	for _, e := range exprs {
		if t.tainted(e) {
			return true
		}
	}
	return false
}

func (t *taintSet) markLHS(lhs ast.Expr) bool {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return t.markIdent(id)
	}
	return false
}

func (t *taintSet) markIdent(id *ast.Ident) bool {
	var obj types.Object
	if o, ok := t.info.Defs[id]; ok && o != nil {
		obj = o
	} else if o, ok := t.info.Uses[id]; ok && o != nil {
		obj = o
	}
	if obj == nil || t.objs[obj] {
		return false
	}
	t.objs[obj] = true
	return true
}

// tainted reports whether the expression's value derives from a seed:
// seed calls, tainted identifiers, method calls on tainted receivers,
// conversions, selectors, arithmetic and indexing over tainted operands.
func (t *taintSet) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if o, ok := t.info.Uses[e]; ok && o != nil {
			return t.objs[o]
		}
		return false
	case *ast.CallExpr:
		if t.seed(e) {
			return true
		}
		if tv, ok := t.info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && t.tainted(e.Args[0])
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			return t.tainted(sel.X)
		}
		return false
	case *ast.SelectorExpr:
		return t.tainted(e.X)
	case *ast.BinaryExpr:
		return t.tainted(e.X) || t.tainted(e.Y)
	case *ast.UnaryExpr:
		return t.tainted(e.X)
	case *ast.ParenExpr:
		return t.tainted(e.X)
	case *ast.StarExpr:
		return t.tainted(e.X)
	case *ast.IndexExpr:
		return t.tainted(e.X)
	}
	return false
}
