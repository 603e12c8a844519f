package analysis

import (
	"go/token"
	"go/types"
	"strings"
)

// HotPathCover is the hygiene analyzer for the //easyio:hotpath contract
// (staleallow's counterpart for annotations): the contract only means
// something if the right functions carry it and every annotation is
// live. It reports
//
//   - a *required hot root* — the known steady-state entry points of the
//     five performance-critical subsystems (sim event dispatch, event-queue
//     schedule/fire/cancel, stats.Hist recording, the service request
//     lifecycle, pmem arbitration) — that is missing its //easyio:hotpath
//     annotation, or that disappeared entirely (the required-roots table
//     below must then be updated consciously);
//   - a //easyio:hotpath annotation on a function no engine root (a
//     main function of the cmd/ binaries) statically reaches — a stale
//     contract certifying dead code;
//   - a //easyio:coldpath annotation that no hot path ever discharges
//     through — stale ballast that would silently exempt code if the
//     function is later wired into a hot path;
//   - both annotations on one function (contradictory).
//
// HotPathCover is a module-wide analyzer precomputed by BuildModule.
var HotPathCover = &Analyzer{
	Name: "hotpathcover",
	Doc:  "require hot roots annotated and every hotpath/coldpath annotation live",
	Run:  runModule,
}

// requiredHotRoot names one function the perf contract must cover, keyed
// by package-path suffix so fixtures and forks match like the real tree.
type requiredHotRoot struct {
	pkgSuffix string
	recv      string // receiver type name, "" for plain functions
	name      string
	label     string
}

// requiredHotRoots is the contract surface: the steady-state entry
// points of the performance-critical subsystems.
var requiredHotRoots = []requiredHotRoot{
	{"internal/sim", "Engine", "step", "sim event dispatch"},
	{"internal/sim", "eventHeap", "push", "event-queue schedule"},
	{"internal/sim", "eventHeap", "pop", "event-queue fire"},
	{"internal/sim", "eventHeap", "remove", "event-queue cancel"},
	{"internal/stats", "Hist", "Add", "latency histogram recording"},
	{"internal/service", "Server", "Inject", "service request admission"},
	{"internal/service", "Server", "execute", "service request execution"},
	{"internal/pmem", "Device", "recompute", "pmem bandwidth arbitration"},
}

// emitCoverFindings precomputes hotpathcover's findings: required-root
// coverage, annotation liveness, and coldpath liveness.
func emitCoverFindings(mod *ModuleInfo, hot *moduleHot, out *passOut) {
	// Index nodes by (pkg suffix, recv, name) for the required table.
	type key struct{ recv, name string }
	byPkg := map[*Package]map[key]*FuncNode{}
	for _, n := range mod.Nodes {
		m := byPkg[n.Pkg]
		if m == nil {
			m = map[key]*FuncNode{}
			byPkg[n.Pkg] = m
		}
		m[key{recvName(n), n.Obj.Name()}] = n
	}
	for _, req := range requiredHotRoots {
		for _, pkg := range mod.pkgs {
			if !strings.HasSuffix(pkg.Path, req.pkgSuffix) {
				continue
			}
			n := byPkg[pkg][key{req.recv, req.name}]
			if n == nil {
				pos := token.NoPos
				if len(pkg.Files) > 0 {
					pos = pkg.Files[0].Pos()
				}
				out.report("hotpathcover", modDiag{Pkg: pkg, Pos: pos,
					Msg: "required hot root " + reqLabel(req) + " (" + req.label + ") not found; re-annotate its replacement and update requiredHotRoots in hotpathcover.go"})
				continue
			}
			if f := hot.facts[n.Obj]; f != nil && !f.hot {
				out.report("hotpathcover", modDiag{Pkg: pkg, Pos: n.Decl.Pos(),
					Msg: hotLabel(n) + " is a required hot root (" + req.label + ") but is not annotated //easyio:hotpath"})
			}
		}
	}

	// Engine roots: main functions of the command binaries. Everything
	// the contract certifies must be live under them (all static edges
	// plus value references, cold or not — this is program reachability,
	// not hot reachability: a hot hook like pmem's recompute is
	// installed by a method-value reference and then invoked
	// dynamically, so Refs count as liveness edges).
	reach := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, n := range mod.Nodes {
		if n.Pkg.Name == "main" && n.Decl.Recv == nil && n.Obj.Name() == "main" {
			reach[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if !reach[c] {
				reach[c] = true
				queue = append(queue, c)
			}
		}
		for _, c := range n.Refs {
			if !reach[c] {
				reach[c] = true
				queue = append(queue, c)
			}
		}
	}
	// With no main package loaded (single-package fixtures), liveness is
	// unjudgeable; skip rather than reject every annotation.
	judgeLive := len(reach) > 0

	for _, n := range mod.Nodes {
		f := hot.facts[n.Obj]
		if f == nil {
			continue
		}
		if f.hot && f.cold {
			out.report("hotpathcover", modDiag{Pkg: n.Pkg, Pos: n.Decl.Pos(),
				Msg: hotLabel(n) + " is annotated both //easyio:hotpath and //easyio:coldpath; pick one"})
			continue
		}
		if f.hot && judgeLive && !reach[n] {
			out.report("hotpathcover", modDiag{Pkg: n.Pkg, Pos: n.Decl.Pos(),
				Msg: "//easyio:hotpath on " + hotLabel(n) + " but no engine root (cmd main) reaches it; the contract certifies dead code — wire the path or drop the annotation"})
		}
		if f.cold && len(hot.roots) > 0 && !hot.coldUsed[n] {
			out.report("hotpathcover", modDiag{Pkg: n.Pkg, Pos: n.Decl.Pos(),
				Msg: "stale //easyio:coldpath on " + hotLabel(n) + ": no hot path discharges through it; delete the annotation"})
		}
	}
}

func reqLabel(req requiredHotRoot) string {
	if req.recv != "" {
		return req.pkgSuffix + ".(*" + req.recv + ")." + req.name
	}
	return req.pkgSuffix + "." + req.name
}

// recvName returns the name of n's receiver type, or "".
func recvName(n *FuncNode) string {
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		if named := derefNamed(recv.Type()); named != nil {
			return named.Obj().Name()
		}
	}
	return ""
}
