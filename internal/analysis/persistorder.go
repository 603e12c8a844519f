package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// PersistOrder verifies the store→Fence→commit protocol every
// crash-consistent path in this reproduction hand-rolls: a persistent
// store that flows into a commit point (a CommitTail write, a journal
// commit, or a superblock update) must be covered by a Device.Fence on
// every path first. Otherwise a crash between commit and store leaves
// committed metadata pointing at data that never became durable — the
// exact failure mode the orderless write design must exclude (PAPER.md
// §4). The check is interprocedural: a callee that commits before its
// first fence is a violation at any call site with pending stores.
//
// Since the typestate engine landed, the check is a declarative
// may-mode spec (persistProtocol) on that engine rather than a bespoke
// traversal; its messages and findings are unchanged.
//
// internal/pmem is exempt: it implements the device, so its internal
// stores are the primitives themselves, not protocol uses.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc:  "persistent stores must be fenced before any commit-point write (store -> Fence -> commit)",
	Run:  runModule,
}

// persistProtocol is the module's one persistence automaton as a
// typestate spec. May mode: a violation is "some path reaches a commit
// point with pending (unfenced) stores", so pending-site traces union at
// joins and loops analyze body-once + zero-iteration merge. The same
// result feeds fencehygiene: a Fence taken when the only possible state
// is already "fenced" is redundant, and a pending trace at a call-graph
// root is a leak.
var persistProtocol = &Protocol{
	Name:            "persistorder",
	Doc:             PersistOrder.Doc,
	Object:          "pmem.Device",
	States:          []string{"start", "dirty", "fenced", "fdirty"},
	Entry:           "start",
	May:             true,
	ExemptPkgs:      []string{"internal/pmem"},
	CallViolDesc:    "call to %s (commits before its first fence)",
	CallPendingDesc: "store(s) inside %s",
	Render:          renderPersistViolation,
	Ops: []ProtoOp{
		{Name: "Fence", Recv: "Device", NArgs: 0, Clears: true,
			Trans: [][2]string{{"start", "fenced"}, {"dirty", "fenced"}, {"fenced", "fenced"}, {"fdirty", "fenced"}},
			Msg:   "a fence persists every pending store"},
		persistStore("WriteAt"), persistStore("Write8"), persistStore("ZeroAt"),
	},
}

// persistStore is the spec of a persistent Device store method: the
// store joins the pending set until the next fence, and it is itself a
// commit point when it writes the journal or the superblock (or sits
// inside CommitTail).
func persistStore(name string) ProtoOp {
	return ProtoOp{Name: name, Recv: "Device", NArgs: anyArgs, Logged: true,
		Commit: &CommitCond{FuncName: "CommitTail", ArgIdents: []string{"JournalOff", "SuperOff"}},
		Trans:  [][2]string{{"start", "dirty"}, {"dirty", "dirty"}, {"fenced", "fdirty"}, {"fdirty", "fdirty"}},
		Msg:    "a store joins the pending set until the next fence"}
}

// renderPersistViolation formats a persist-order finding exactly as the
// retired bespoke analyzer did: the commit description, the pending
// count, and the first pending store's description and position.
func renderPersistViolation(v *ProtoViolation, fset *token.FileSet) string {
	first := v.Trace[0]
	fp := fset.Position(first.pos)
	return fmt.Sprintf(
		"commit-point store %s executes with %d unfenced persistent store(s) (first: %s at %s:%d); a crash here commits metadata before the data is durable — insert Device.Fence before committing",
		v.OpDesc, len(v.Trace), first.desc, shortFile(fp.Filename), fp.Line)
}

// shortFile trims a position filename to its last two path elements so
// messages stay readable.
func shortFile(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) <= 2 {
		return name
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
