package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// The partition report is the machine-readable form of the confinement
// contract (see Confinement), committed so any change to it shows in a
// diff: per reachable type its confinement class with the evidence chain, plus the
// module lock-order graph and its acyclicity certificate. It is computed
// single-threadedly from the precomputed ModuleInfo with every iteration
// order pinned, so `easyio-vet -partition` output is byte-identical at
// any GOMAXPROCS and safe to commit.

// PartitionReport is the top-level partition.json shape.
type PartitionReport struct {
	// Version tracks the report schema.
	Version string `json:"version"`
	// Roots are the package roots the type reachability started from.
	Roots []string `json:"roots"`
	// Types classifies every reachable named struct type.
	Types []PartitionType `json:"types"`
	// LockOrder is the module lock-class graph.
	LockOrder PartitionLockOrder `json:"lock_order"`
	// UnguardedFindings counts shared-unguarded escape findings
	// (pre-suppression); the parallel refactor requires this to be zero.
	UnguardedFindings int `json:"unguarded_findings"`
	// HotPaths is the per-root performance-contract status: every
	// //easyio:hotpath root with its reachability and allocation counts.
	// CI diffs this section, so a root regressing to "allocating" — or an
	// amortized/dynamic-call count creeping up — is visible in review.
	HotPaths []HotRootStatus `json:"hot_paths"`
	// Protocols certifies each typestate automaton module-wide: states,
	// transitions, and pre-suppression finding count. CI requires every
	// protocol "clean", so a lifecycle regression shows up in the diff
	// even when it is suppressed at the site.
	Protocols []ProtocolStatus `json:"protocols"`
}

// PartitionType is one classified type with its evidence chain.
type PartitionType struct {
	Type     string   `json:"type"`
	Class    string   `json:"class"`
	Evidence []string `json:"evidence,omitempty"`
}

// PartitionLockOrder is the lock-order subreport.
type PartitionLockOrder struct {
	// Classes are the lock classes acquired anywhere in the module.
	Classes []string `json:"classes"`
	// Edges are the distinct-class held-while-acquiring edges.
	Edges []PartitionLockEdge `json:"edges"`
	// SameClassNests are unordered same-class acquisition sites
	// (including //easyio:allow-sanctioned hierarchical ones).
	SameClassNests []string `json:"same_class_nests"`
	// Acyclic certifies the class graph has no acquisition cycle.
	Acyclic bool `json:"acyclic"`
	// Cycles lists each deadlock cycle when Acyclic is false.
	Cycles [][]string `json:"cycles,omitempty"`
}

// PartitionLockEdge is one lock-order edge with its evidence site.
type PartitionLockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	At   string `json:"at"`
}

const partitionVersion = "easyio-partition-v3"

// BuildPartition renders the concurrency partition of a built module.
// Positions are root-relative so the report is stable across checkouts.
func BuildPartition(mod *ModuleInfo, root string) *PartitionReport {
	rep := &PartitionReport{Version: partitionVersion}
	rel := func(pkg *Package, pos token.Pos) string {
		if pkg == nil || !pos.IsValid() {
			return ""
		}
		p := pkg.Fset.Position(pos)
		name := p.Filename
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			name = filepath.ToSlash(r)
		}
		return fmt.Sprintf("%s:%d", name, p.Line)
	}

	rep.Roots = mod.conf.roots
	for _, tc := range mod.conf.types {
		pt := PartitionType{Type: tc.Name, Class: tc.Class}
		for _, ev := range tc.Evidence {
			s := ev.Kind
			if at := rel(ev.Pkg, ev.Pos); at != "" {
				s += " " + at
			}
			if ev.Note != "" {
				s += " (" + ev.Note + ")"
			}
			pt.Evidence = append(pt.Evidence, s)
		}
		rep.Types = append(rep.Types, pt)
	}
	rep.UnguardedFindings = len(mod.findings["confinement"])
	if rep.Types == nil {
		rep.Types = []PartitionType{}
	}
	if rep.Roots == nil {
		rep.Roots = []string{}
	}

	ml := mod.locks
	lo := PartitionLockOrder{Acyclic: ml.acyclic, Cycles: ml.cycles, Classes: []string{}, Edges: []PartitionLockEdge{}, SameClassNests: []string{}}
	lo.Classes = append(lo.Classes, ml.classes...)
	for _, e := range ml.edges {
		lo.Edges = append(lo.Edges, PartitionLockEdge{From: e.From, To: e.To, At: rel(e.Pkg, e.Pos)})
	}
	for _, d := range ml.nests {
		lo.SameClassNests = append(lo.SameClassNests, rel(d.Pkg, d.Pos))
	}
	rep.LockOrder = lo
	rep.HotPaths = mod.HotRoots()
	rep.Protocols = mod.ProtocolStatuses()
	return rep
}

// WritePartition writes the report as indented JSON with a trailing
// newline (committable, diff-stable).
func WritePartition(path string, rep *PartitionReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
