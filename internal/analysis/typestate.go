package analysis

// This file is the declarative typestate protocol engine. A Protocol is
// declared as in-tree Go data — states, a start/accept set, transitions
// keyed by method/function matchers, and an error message per illegal
// edge — and the engine does the rest: per-path abstract interpretation
// over the typed ASTs with branch merging, defer replay at every exit and
// crash calls ending the path, per-function ProtocolSummary facts
// (entry-state → exit-state map plus must-pass-through obligations)
// propagated bottom-up over the call-graph SCCs with bounded widening at
// loops and recursion, and violations reported at call sites with the
// concrete state trace from the protocol's start.
//
// Three protocol shapes share one walker:
//
//   - Ambient must-mode (svclifecycle, horizonproto (fixture-only),
//     epochbudget): one protocol instance per control-flow context,
//     tracked as a bitset of possible states. A call is a violation only when *no* currently
//     possible state admits it, so unknown entry states never produce
//     false positives; per-entry-state summary walks make the check
//     interprocedural (a helper's conditional violations fire at call
//     sites whose state set provably triggers them).
//
//   - Ambient may-mode (persistorder): the persistence protocol, where a
//     violation is "some path reaches the commit with pending stores".
//     The walker tracks a pending-site trace (may-union at joins), a
//     must-cleared flag, and the possible-state bitset along the spec's
//     edges; loops run the body once and merge the zero-iteration state.
//     A clear taken when its target is already the only possible state
//     is redundant. fencehygiene reports those redundant clears and the
//     pending traces left at call-graph roots.
//
//   - Per-value (handlestate): each tracked object (a file handle) runs
//     its own automaton keyed by its types.Object, with nil-guard error
//     siblings, escape analysis (any unmatched appearance stops
//     tracking), ownership transfer on return, and exit obligations
//     (accept states) checked on every normal exit after defer replay.
//
// The protocol specs live in protocols.go / persistorder.go.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nowMS is a monotonic millisecond clock for the per-protocol timing
// breakdown surfaced in BENCH_vet.json.
func nowMS() float64 {
	return float64(time.Now().UnixNano()) / 1e6
}

// TraceStep is one step of a protocol state trace attached to a finding:
// the position where the state changed (or an obligation was created)
// and a human-readable description.
type TraceStep struct {
	Pos  token.Position `json:"pos"`
	Desc string         `json:"desc"`
}

// Protocol is one declarative typestate specification.
type Protocol struct {
	// Name is the analyzer registry name this protocol reports under.
	Name string
	// Doc is the one-line analyzer description.
	Doc string
	// Object names the protocol's subject for messages and the partition
	// report (e.g. "service.Server").
	Object string
	// States are the declared automaton states, in display order.
	States []string
	// Entry, when non-empty, is the concrete state every walk starts in
	// (may-mode). Empty means unknown entry: all states plus "absent".
	Entry string
	// Accept are the states (plus absent) with no exit obligation; only
	// meaningful for per-value protocols, where a tracked value leaving
	// a function outside Accept is reported as a leak.
	Accept []string
	// PerValue tracks one automaton per created value (types.Object)
	// instead of one ambient automaton per control-flow context.
	PerValue bool
	// May switches to may-mode reporting (persistorder): violations fire
	// when some path violates, traces union at joins, summaries use the
	// cleared-flag shape instead of per-entry-state transfer maps, and
	// loop bodies are analyzed once and merged with the zero-iteration
	// state instead of iterated to a bounded fixpoint.
	May bool
	// ValueType is the named type of tracked values (per-value only).
	ValueType string
	// ExemptPkgs are import-path suffixes whose functions implement the
	// protocol: they are neither walked, summarized, nor reported.
	ExemptPkgs []string
	// ExemptRecvs are receiver type names whose methods implement the
	// protocol (the subject's own methods).
	ExemptRecvs []string
	// LeakMsg formats a per-value exit-obligation finding; %s is the
	// creating call.
	LeakMsg string
	// CallViolDesc formats the operation description of a may-mode
	// call-site violation; %s is the callee name.
	CallViolDesc string
	// CallPendingDesc formats the synthetic trace step for a may-mode
	// callee leaving obligations pending; %s is the callee name.
	CallPendingDesc string
	// Render, when non-nil, formats a violation message (persistorder's
	// historical message shape); nil uses the engine default.
	Render func(v *ProtoViolation, fset *token.FileSet) string
	// Ops are the protocol operations in match-priority order.
	Ops []ProtoOp
}

// CommitCond marks a logged operation as a commit point when the
// enclosing function has a given name or the first argument references
// one of the given identifiers (persistorder's commit classification).
type CommitCond struct {
	FuncName  string
	ArgIdents []string
}

// ProtoOp is one protocol operation: a matcher plus its legal edges.
type ProtoOp struct {
	// Name is the called method or function name; "*" matches any
	// method on Recv not matched by an earlier op.
	Name string
	// Recv, when non-empty, requires a method call whose receiver has
	// this named type.
	Recv string
	// PkgSuffix, when non-empty, requires a package function from a
	// package whose import path has this suffix.
	PkgSuffix string
	// ArgType, when non-empty, matches any call (static or dynamic)
	// with an argument of this named type; per-value protocols apply
	// the op to each tracked argument.
	ArgType string
	// ResultType, when non-empty with Creates, matches any call whose
	// result (or tuple component) has this named type.
	ResultType string
	// NArgs, when >= 0, requires exactly that many arguments.
	NArgs int
	// Creates starts a new automaton instance: never a violation; the
	// state becomes the edge target.
	Creates bool
	// Clears is a may-mode global clear (Device.Fence): the pending
	// trace empties and the cleared flag sets on this path.
	Clears bool
	// Logged appends the operation to the pending trace (may-mode).
	Logged bool
	// Commit marks a may-mode commit point, classified by the condition.
	Commit *CommitCond
	// Trans are the legal edges {from, to}; an op executed when no
	// currently-possible state has an edge is a violation. Creates ops
	// use the single edge's target and ignore the source.
	Trans [][2]string
	// Msg is the rationale appended to an illegal-edge finding.
	Msg string
}

// ProtoViolation is one protocol violation before rendering.
type ProtoViolation struct {
	Pos    token.Pos
	OpDesc string
	States string
	Legal  string
	Via    string
	OpMsg  string
	// Leak marks a per-value exit-obligation violation (a tracked value
	// left outside the accept set on a normal exit).
	Leak  bool
	Trace []tsStep
}

// tsStep is the internal (token.Pos-keyed) trace step; converted to
// TraceStep at diagnostic assembly.
type tsStep struct {
	pos  token.Pos
	desc string
}

// ---------------------------------------------------------------------
// Compiled protocols.

// stateset is a bitset over a protocol's states plus the "absent" bit.
type stateset uint32

type opC struct {
	op   *ProtoOp
	from stateset
	// to maps a source state index to its target index.
	to map[int]int
	// toCreate is the Creates target index.
	toCreate int
	legal    string
}

type protoC struct {
	p       *Protocol
	idx     map[string]int
	nstates int
	noneBit stateset
	allBits stateset
	accept  stateset
	entry   stateset
	// clean is the target of the may-mode Clears op: when it is the only
	// possible state, another clear is redundant.
	clean stateset
	ops   []opC
	// opNames pre-filters functions: a function whose body calls none
	// of these names (and has no tracked-type parameter) is untouched.
	opNames map[string]bool
}

func compileProtocol(p *Protocol) *protoC {
	pc := &protoC{p: p, idx: map[string]int{}, opNames: map[string]bool{}}
	pc.nstates = len(p.States)
	for i, s := range p.States {
		pc.idx[s] = i
	}
	pc.noneBit = 1 << uint(pc.nstates)
	pc.allBits = pc.noneBit - 1
	bit := func(name string) stateset {
		i, ok := pc.idx[name]
		if !ok {
			panic("typestate: protocol " + p.Name + " references unknown state " + name)
		}
		return 1 << uint(i)
	}
	for _, s := range p.Accept {
		pc.accept |= bit(s)
	}
	pc.accept |= pc.noneBit
	if p.Entry != "" {
		pc.entry = bit(p.Entry)
	} else {
		pc.entry = pc.allBits | pc.noneBit
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		c := opC{op: op, to: map[int]int{}, toCreate: -1}
		var legal []string
		for _, e := range op.Trans {
			if op.Creates {
				c.toCreate = pc.idx[e[1]]
				if _, ok := pc.idx[e[1]]; !ok {
					panic("typestate: protocol " + p.Name + " creates unknown state " + e[1])
				}
				continue
			}
			c.from |= bit(e[0])
			c.to[pc.idx[e[0]]] = pc.idx[e[1]]
			legal = append(legal, e[0])
			if op.Clears {
				pc.clean |= bit(e[1])
			}
		}
		c.legal = strings.Join(legal, ", ")
		if op.Name != "*" {
			pc.opNames[op.Name] = true
		}
		pc.ops = append(pc.ops, c)
	}
	return pc
}

// render names the states in a bitset for messages.
func (pc *protoC) render(bits stateset) string {
	var names []string
	for i := 0; i < pc.nstates; i++ {
		if bits&(1<<uint(i)) != 0 {
			names = append(names, pc.p.States[i])
		}
	}
	if bits&pc.noneBit != 0 {
		names = append(names, "absent")
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "|")
}

// step maps the possible states that admit op c to their edge targets;
// 0 means no possible state admits it.
func (pc *protoC) step(c *opC, bits stateset) stateset {
	var next stateset
	for i := 0; i < pc.nstates; i++ {
		if bits&c.from&(1<<uint(i)) != 0 {
			next |= 1 << uint(c.to[i])
		}
	}
	return next
}

// transfer applies a callee's entry → exit map (ProtocolSummary.xfer) to
// the possible states bits. An entry state with no normal exit maps to
// itself; a nil map yields 0, which callers read as "no change".
func (pc *protoC) transfer(xfer []stateset, bits stateset) stateset {
	var next stateset
	for i, x := range xfer {
		if bits&(1<<uint(i)) == 0 {
			continue
		}
		if x == 0 {
			x = 1 << uint(i)
		}
		next |= x
	}
	return next
}

// exemptUnit reports whether a function implements the protocol (its
// package or receiver type is exempt) and must not be walked or applied.
func (pc *protoC) exemptUnit(n *FuncNode) bool {
	for _, suf := range pc.p.ExemptPkgs {
		if strings.HasSuffix(n.Pkg.Path, suf) {
			return true
		}
	}
	if len(pc.p.ExemptRecvs) > 0 && n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 {
		rn := recvName(n)
		for _, r := range pc.p.ExemptRecvs {
			if rn == r {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Summaries.

// ProtocolSummary is the interprocedural fact one function exports for
// one protocol: entry-state → exit-state transfer, conditional
// violations keyed by entry state, may-mode clear/pending facts, and
// per-value parameter and result facts.
type ProtocolSummary struct {
	node *FuncNode
	lit  bool
	// touches: the function (transitively) performs protocol ops.
	touches bool
	// xfer maps each entry state index (declared states, then absent) to
	// the union of exit state sets; 0 means "no normal exit" and applies
	// as identity.
	xfer []stateset
	// cond maps each entry state index to the violations that fire iff
	// the entry includes that state (excluding unconditional ones).
	cond []map[token.Pos]*ProtoViolation
	// May-mode facts (persistorder): every normal exit executed a clear;
	// every normal exit is in the clear's target state (nothing may have
	// stored since); pending sites left at some exit; commit points
	// reachable with no prior clear since entry; clears taken when the
	// target was already the only possible state (fencehygiene).
	mustClear bool
	cleanExit bool
	exitTrace []tsStep
	condClear []token.Pos
	redundant []token.Pos
	// Per-value facts, indexed by parameter position: the function uses
	// / provably closes / escapes a tracked-type parameter; returnsFresh
	// marks a function returning a freshly created open value.
	paramUse, paramClose, paramEscape []bool
	returnsFresh                      bool
	// viols are the unconditional local violations, reported in this
	// function's package; leaks are per-value exit-obligation findings.
	viols []*ProtoViolation
}

func (s *ProtocolSummary) fingerprint() string {
	var b strings.Builder
	if s.touches {
		b.WriteString("T")
	}
	if s.mustClear {
		b.WriteString("C")
	}
	if s.cleanExit {
		b.WriteString("K")
	}
	if s.returnsFresh {
		b.WriteString("R")
	}
	b.WriteString("|")
	for _, x := range s.xfer {
		b.WriteString(strconv.FormatUint(uint64(x), 16))
		b.WriteString(",")
	}
	b.WriteString("|")
	for i, m := range s.cond {
		b.WriteString(strconv.Itoa(i))
		b.WriteString(":")
		b.WriteString(strconv.Itoa(len(m)))
		b.WriteString(",")
	}
	b.WriteString("|")
	for _, t := range s.exitTrace {
		b.WriteString(strconv.Itoa(int(t.pos)))
		b.WriteString(",")
	}
	b.WriteString("|")
	for _, p := range s.condClear {
		b.WriteString(strconv.Itoa(int(p)))
		b.WriteString(",")
	}
	b.WriteString("|")
	for i := range s.paramUse {
		if s.paramUse[i] {
			b.WriteString("u")
		}
		if s.paramClose[i] {
			b.WriteString("c")
		}
		if s.paramEscape[i] {
			b.WriteString("e")
		}
		b.WriteString(",")
	}
	b.WriteString("|")
	b.WriteString(strconv.Itoa(len(s.viols)))
	return b.String()
}

// ---------------------------------------------------------------------
// Walker state.

// objTrack is one tracked value's automaton state (per-value mode).
type objTrack struct {
	bits      stateset
	createPos token.Pos
	desc      string
	// local: created in this unit, so exit obligations apply.
	local   bool
	escaped bool
	// err is the sibling error object from a `v, err := Create(...)`
	// binding; nil-guard branches on it kill or confirm the value.
	err   types.Object
	param int // parameter index, or -1
	trace []tsStep
}

// tsState is the abstract state along one control-flow path.
type tsState struct {
	pc      *protoC
	bits    stateset
	cleared bool
	trace   []tsStep
	objs    map[types.Object]*objTrack
}

func (s *tsState) Clone() *tsState {
	c := &tsState{pc: s.pc, bits: s.bits, cleared: s.cleared}
	c.trace = append(c.trace, s.trace...)
	if s.objs != nil {
		c.objs = make(map[types.Object]*objTrack, len(s.objs))
		for k, v := range s.objs {
			cv := *v
			tr := append([]tsStep(nil), v.trace...)
			cv.trace = tr
			c.objs[k] = &cv
		}
	}
	return c
}

// maxPendingSites bounds a trace so the SCC fixpoint terminates;
// overflow keeps the first sites (the ones a finding would cite anyway).
const maxPendingSites = 16

// addStep appends a trace step with position dedup and the site cap,
// keeping first-seen order.
func addStep(steps []tsStep, st tsStep) []tsStep {
	for _, s := range steps {
		if s.pos == st.pos {
			return steps
		}
	}
	if len(steps) >= maxPendingSites {
		return steps
	}
	return append(steps, st)
}

// Join merges two live states. Ambient bits union; the may-mode cleared
// flag intersects and traces union (may-analysis); must-mode traces keep
// the first non-empty witness. Per-value states union per object, with
// values absent on one side gaining the absent bit.
func (s *tsState) Join(o *tsState) *tsState {
	pc := s.pc
	out := &tsState{pc: pc, bits: s.bits | o.bits, cleared: s.cleared && o.cleared}
	if pc.p.May {
		out.trace = append(out.trace, s.trace...)
		for _, st := range o.trace {
			out.trace = addStep(out.trace, st)
		}
	} else if len(s.trace) > 0 {
		out.trace = append(out.trace, s.trace...)
	} else {
		out.trace = append(out.trace, o.trace...)
	}
	if s.objs != nil || o.objs != nil {
		out.objs = map[types.Object]*objTrack{}
		// Map iteration order is invisible here: each key is processed
		// independently into the result map (clones are inlined so the
		// loop bodies stay call-free for maporder).
		for k, v := range s.objs {
			c := *v
			tr := append([]tsStep(nil), v.trace...)
			c.trace = tr
			if ov, ok := o.objs[k]; ok {
				c.bits |= ov.bits
				c.escaped = c.escaped || ov.escaped
			} else {
				c.bits |= pc.noneBit
			}
			out.objs[k] = &c
		}
		for k, v := range o.objs {
			if _, ok := s.objs[k]; ok {
				continue
			}
			c := *v
			tr := append([]tsStep(nil), v.trace...)
			c.trace = tr
			c.bits |= pc.noneBit
			out.objs[k] = &c
		}
	}
	return out
}

// Equal compares the convergence-relevant part of two states for loop
// fixpoints (traces excluded: they are witnesses, not lattice points).
func (s *tsState) Equal(o *tsState) bool { return s.sig() == o.sig() }

func (s *tsState) sig() string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(uint64(s.bits), 16))
	if s.cleared {
		b.WriteString("c")
	}
	if s.objs != nil {
		keys := make([]*objTrack, 0, len(s.objs))
		for _, v := range s.objs {
			keys = append(keys, v)
		}
		// Deterministic: order by creation position.
		sort.Slice(keys, func(i, j int) bool { return keys[i].createPos < keys[j].createPos })
		for _, v := range keys {
			b.WriteString("|")
			b.WriteString(strconv.Itoa(int(v.createPos)))
			b.WriteString(":")
			b.WriteString(strconv.FormatUint(uint64(v.bits), 16))
			if v.escaped {
				b.WriteString("e")
			}
		}
	}
	return b.String()
}

// tsDefer is one deferred call's protocol effect, replayed at exits in
// reverse registration order.
type tsDefer struct {
	pos token.Pos
	// op + recvObj/argObjs: a matched protocol op to replay.
	op       *opC
	desc     string
	recvObj  types.Object
	argObjs  []types.Object
	enclosed *ast.CallExpr
	// callee: a summarized callee whose transfer applies at exit.
	callee *ProtocolSummary
	cfn    *types.Func
}

// ---------------------------------------------------------------------
// Walker.

type tsWalker struct {
	mod  *ModuleInfo
	pc   *protoC
	res  *protoResult
	node *FuncNode
	body *ast.BlockStmt
	lit  bool
	sum  *ProtocolSummary
	// entryIdx >= 0: a conditional summary walk from that entry state;
	// violations go to sum.cond[entryIdx] unless already unconditional.
	entryIdx int
	// localPos are the unconditional violation positions (filled by the
	// local walk, consulted by conditional walks).
	localPos map[token.Pos]bool
	// reported dedupes violations by position within this walk.
	reported map[token.Pos]bool
	leaked   map[token.Pos]bool
	// sanctioned marks identifier nodes consumed by a matched op (not
	// escapes).
	sanctioned map[*ast.Ident]bool
	paramObjs  map[types.Object]int
	defers     []tsDefer
	exits      []*tsState
}

func (w *tsWalker) info() *types.Info { return w.node.Pkg.Info }

// walkUnit runs one walk of a function body. entryIdx < 0 is the local
// (reporting) walk; entryIdx >= 0 is a conditional walk from that entry
// state whose findings become entry-conditional summary facts.
func walkUnit(mod *ModuleInfo, res *protoResult, n *FuncNode, body *ast.BlockStmt, lit bool, sum *ProtocolSummary, entryIdx int, localPos map[token.Pos]bool) {
	pc := res.pc
	w := &tsWalker{
		mod: mod, pc: pc, res: res, node: n, body: body, lit: lit,
		sum: sum, entryIdx: entryIdx, localPos: localPos,
		reported:   map[token.Pos]bool{},
		leaked:     map[token.Pos]bool{},
		sanctioned: map[*ast.Ident]bool{},
		paramObjs:  map[types.Object]int{},
	}
	st := &tsState{pc: pc}
	if entryIdx >= 0 {
		st.bits = 1 << uint(entryIdx)
	} else {
		st.bits = pc.entry
	}
	if pc.p.PerValue {
		st.objs = map[types.Object]*objTrack{}
		if !lit {
			w.trackParams(st)
		}
	}
	if out, live := walkFlow(w, body, st); live {
		w.recordExit(out)
	}
	w.finish()
}

// trackParams seeds per-value tracking for parameters of the tracked
// type: assumed open-or-closed-or-absent, no exit obligation.
func (w *tsWalker) trackParams(st *tsState) {
	idx := 0
	for _, f := range w.node.Decl.Type.Params.List {
		for _, name := range f.Names {
			obj := w.info().Defs[name]
			if obj != nil && name.Name != "_" && namedTypeIs(obj.Type(), w.pc.p.ValueType) {
				st.objs[obj] = &objTrack{
					bits:      w.pc.allBits | w.pc.noneBit,
					createPos: name.Pos(),
					desc:      name.Name,
					param:     idx,
				}
				w.paramObjs[obj] = idx
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	if len(w.paramObjs) > 0 && w.sum.paramUse == nil {
		w.sum.paramUse = make([]bool, idx)
		w.sum.paramClose = make([]bool, idx)
		w.sum.paramEscape = make([]bool, idx)
	}
}

// report records a violation for this walk: unconditional on the local
// walk, entry-conditional otherwise.
func (w *tsWalker) report(v *ProtoViolation) {
	if w.reported[v.Pos] {
		return
	}
	w.reported[v.Pos] = true
	if w.entryIdx < 0 {
		w.sum.viols = append(w.sum.viols, v)
		if w.localPos != nil {
			w.localPos[v.Pos] = true
		}
		return
	}
	if w.localPos != nil && w.localPos[v.Pos] {
		return
	}
	if w.sum.cond == nil {
		w.sum.cond = make([]map[token.Pos]*ProtoViolation, w.pc.nstates+1)
	}
	if w.sum.cond[w.entryIdx] == nil {
		w.sum.cond[w.entryIdx] = map[token.Pos]*ProtoViolation{}
	}
	w.sum.cond[w.entryIdx][v.Pos] = v
}

// recordExit replays defers in reverse order against a clone and folds
// the result into the summary's exit facts and per-value obligations.
func (w *tsWalker) recordExit(st *tsState) {
	ex := st.Clone()
	for i := len(w.defers) - 1; i >= 0; i-- {
		w.replayDefer(&w.defers[i], ex)
	}
	w.exits = append(w.exits, ex)
	if w.pc.p.PerValue && w.entryIdx < 0 {
		w.checkObligations(ex)
	}
}

func (w *tsWalker) checkObligations(ex *tsState) {
	oblig := w.pc.allBits &^ w.pc.accept
	var tracked []*objTrack
	for _, o := range ex.objs {
		tracked = append(tracked, o)
	}
	sort.Slice(tracked, func(i, j int) bool { return tracked[i].createPos < tracked[j].createPos })
	for _, o := range tracked {
		if !o.local || o.escaped || o.bits&oblig == 0 || w.leaked[o.createPos] {
			continue
		}
		w.leaked[o.createPos] = true
		v := &ProtoViolation{
			Pos:    o.createPos,
			OpDesc: o.desc,
			States: w.pc.render(o.bits &^ w.pc.noneBit),
			Leak:   true,
			Trace:  append([]tsStep(nil), o.trace...),
		}
		w.sum.viols = append(w.sum.viols, v)
	}
}

// finish folds the recorded exits into the summary. A function whose
// every path crashes has no normal exit: identity for callers.
func (w *tsWalker) finish() {
	if w.lit {
		return
	}
	sum, pc := w.sum, w.pc
	if pc.p.May {
		if w.entryIdx >= 0 {
			return
		}
		if len(w.exits) == 0 {
			return
		}
		sum.mustClear, sum.cleanExit = true, true
		for _, ex := range w.exits {
			if !ex.cleared {
				sum.mustClear = false
			}
			if ex.bits != pc.clean {
				sum.cleanExit = false
			}
			for _, st := range ex.trace {
				sum.exitTrace = addStep(sum.exitTrace, st)
			}
		}
		return
	}
	if pc.p.PerValue {
		if len(w.paramObjs) > 0 {
			mustClose := make(map[int]bool, len(w.paramObjs))
			for _, i := range w.paramObjs {
				mustClose[i] = len(w.exits) > 0
			}
			for _, ex := range w.exits {
				for obj, i := range w.paramObjs {
					o := ex.objs[obj]
					if o == nil {
						mustClose[i] = false
						continue
					}
					if o.escaped {
						w.sum.paramEscape[i] = true
					}
					if o.bits&(pc.allBits&^pc.accept) != 0 || o.escaped {
						mustClose[i] = false
					}
				}
			}
			for _, i := range w.paramObjs {
				if mustClose[i] {
					w.sum.paramClose[i] = true
				}
			}
		}
		return
	}
	// Ambient must-mode: record the entry → exit transfer.
	idx := w.entryIdx
	if idx < 0 {
		return
	}
	if sum.xfer == nil {
		sum.xfer = make([]stateset, pc.nstates+1)
	}
	var exit stateset
	for _, ex := range w.exits {
		exit |= ex.bits
	}
	sum.xfer[idx] = exit
}

// ---------------------------------------------------------------------
// Transfer hooks for the flow walker.

func (w *tsWalker) stmt(s ast.Stmt, st *tsState) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		w.scanCalls(s, st)
		if w.pc.p.PerValue {
			w.discharge(s, st)
		}
		w.recordExit(st)
		return
	case *ast.AssignStmt:
		w.scanCalls(s, st)
		if w.pc.p.PerValue {
			w.bind(s, st)
		}
	case *ast.DeclStmt:
		w.scanCalls(s, st)
		if w.pc.p.PerValue {
			w.bindDecl(s, st)
		}
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
	case *ast.GoStmt:
		// A spawned goroutine is a different execution context; tracked
		// values it captures escape.
		w.escapeIn(s, st)
	default:
		w.scanCalls(s, st)
	}
	if w.pc.p.PerValue {
		w.escapeScan(s, st)
	}
}

func (w *tsWalker) expr(e ast.Expr, st *tsState) { w.scanCalls(e, st) }

func (w *tsWalker) refine(cond ast.Expr, then, els *tsState) {
	if w.pc.p.PerValue {
		w.nilGuard(cond, then, els)
	}
}

// loop: may-mode analyzes the body once and merges the zero-iteration
// state (stores in the body may be pending after the loop, fences in it
// are not guaranteed); must-mode iterates to a bounded fixpoint so states
// reached late in iteration one feed back into iteration two. Tracked
// values the loop statement mentions outside a matched op escape.
func (w *tsWalker) loop(s ast.Stmt, st *tsState, body func(*tsState) (*tsState, bool)) *tsState {
	rounds := 4
	if w.pc.p.May {
		rounds = 1
	}
	st = loopJoin(st, body, rounds)
	if w.pc.p.PerValue {
		w.escapeScan(s, st)
	}
	return st
}

// nilGuard refines per-value tracking across `if err != nil` / `== nil`
// branches: on the error side the sibling value is absent (the failed
// create returned nil), on the success side it is definitely present.
func (w *tsWalker) nilGuard(cond ast.Expr, thenState, elseState *tsState) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return
	}
	var id *ast.Ident
	if isNilIdent(be.Y) {
		id, _ = ast.Unparen(be.X).(*ast.Ident)
	} else if isNilIdent(be.X) {
		id, _ = ast.Unparen(be.Y).(*ast.Ident)
	}
	if id == nil {
		return
	}
	obj := w.info().Uses[id]
	if obj == nil {
		return
	}
	errSide, okSide := thenState, elseState
	if be.Op == token.EQL {
		errSide, okSide = elseState, thenState
	}
	for _, o := range errSide.objs {
		if o.err == obj {
			o.bits = w.pc.noneBit
		}
	}
	for _, o := range okSide.objs {
		if o.err == obj {
			o.bits &^= w.pc.noneBit
		}
	}
}

// scanCalls applies every call under n in source order; function
// literals are not entered, and tracked values they capture escape.
func (w *tsWalker) scanCalls(n ast.Node, st *tsState) {
	eachCall(n, func(c *ast.CallExpr) { w.call(c, st) },
		func(lit *ast.FuncLit) { w.escapeIn(lit, st) })
}

// ends recognizes process-terminating calls, which end a path: panic,
// os.Exit, and the log.Fatal family. Pending obligations die with the
// process.
func (w *tsWalker) ends(call *ast.CallExpr) bool {
	if isPanicCall(call) {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	switch {
	case pkg.Name == "os" && sel.Sel.Name == "Exit":
		return true
	case pkg.Name == "log" && strings.HasPrefix(sel.Sel.Name, "Fatal"):
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Op matching and application.

// recvTypeName resolves the named type of a method-call receiver.
func (w *tsWalker) recvTypeName(expr ast.Expr) string {
	if n := derefNamed(w.info().Types[expr].Type); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// matchOp finds the protocol op a call performs, in spec order.
func (w *tsWalker) matchOp(call *ast.CallExpr) (*opC, *ast.SelectorExpr) {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var selName string
	if sel != nil {
		selName = sel.Sel.Name
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		selName = id.Name
	}
	for i := range w.pc.ops {
		c := &w.pc.ops[i]
		op := c.op
		if op.Name != "*" && op.Name != selName {
			continue
		}
		if op.NArgs >= 0 && len(call.Args) != op.NArgs {
			continue
		}
		switch {
		case op.Recv != "":
			if sel == nil || !w.isMethodRecv(sel) || w.recvTypeName(sel.X) != op.Recv {
				continue
			}
			return c, sel
		case op.PkgSuffix != "":
			if !w.isPkgFunc(call, op.PkgSuffix) {
				continue
			}
			return c, sel
		case op.ResultType != "":
			if !w.hasResultType(call, op.ResultType) {
				continue
			}
			return c, sel
		case op.ArgType != "":
			if !w.hasArgType(call, op.ArgType) {
				continue
			}
			return c, sel
		default:
			return c, sel
		}
	}
	return nil, sel
}

// isMethodRecv distinguishes `x.M()` (x a value) from `pkg.F()`.
func (w *tsWalker) isMethodRecv(sel *ast.SelectorExpr) bool {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := w.info().Uses[id].(*types.PkgName); isPkg {
			return false
		}
	}
	return true
}

// isPkgFunc reports whether call is a package-level function from a
// package whose import path has the given suffix. Statically resolved
// callees match by their defining package; a bare identifier call
// matches when the current package has the suffix (fixtures).
func (w *tsWalker) isPkgFunc(call *ast.CallExpr, suffix string) bool {
	if fn := staticCallee(w.info(), call); fn != nil {
		if fn.Type().(*types.Signature).Recv() != nil {
			return false
		}
		return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), suffix)
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return strings.HasSuffix(w.node.Pkg.Path, suffix)
	}
	return false
}

func (w *tsWalker) hasResultType(call *ast.CallExpr, name string) bool {
	tv, ok := w.info().Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if namedTypeIs(tup.At(i).Type(), name) {
				return true
			}
		}
		return false
	}
	return namedTypeIs(tv.Type, name)
}

func (w *tsWalker) hasArgType(call *ast.CallExpr, name string) bool {
	for _, a := range call.Args {
		if namedTypeIs(w.info().Types[a].Type, name) {
			return true
		}
	}
	return false
}

// opDesc renders the operation for messages, matching the historical
// persistence descriptions (`d.WriteAt`).
func opDesc(call *ast.CallExpr, sel *ast.SelectorExpr) string {
	if sel != nil {
		return exprString(sel.X) + "." + sel.Sel.Name
	}
	return exprString(call.Fun)
}

// isCommit classifies a logged op as a commit point (persistorder):
// inside a function of the configured name, or with a first argument
// referencing one of the configured identifiers.
func (w *tsWalker) isCommit(cc *CommitCond, call *ast.CallExpr) bool {
	if cc == nil {
		return false
	}
	if !w.lit && cc.FuncName != "" && w.node.Decl.Name.Name == cc.FuncName {
		return true
	}
	if len(call.Args) == 0 {
		return false
	}
	commit := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			for _, want := range cc.ArgIdents {
				if id.Name == want {
					commit = true
				}
			}
		}
		return true
	})
	return commit
}

func (w *tsWalker) call(call *ast.CallExpr, st *tsState) {
	if c, sel := w.matchOp(call); c != nil {
		w.applyOp(c, call, sel, st)
		return
	}
	if fn := staticCallee(w.info(), call); fn != nil {
		if cn := w.mod.Funcs[fn]; cn != nil {
			if cs := w.res.sums[fn]; cs != nil && !w.pc.exemptUnit(cn) {
				w.applyCallee(call, fn, cs, st)
			} else if w.pc.p.PerValue {
				w.sanctionArgs(call, st, nil)
			}
			return
		}
		// External (stdlib) code does not participate in the protocol;
		// tracked values passed to it escape (handled by escapeScan).
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.info().Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if w.info().Types[call.Fun].IsType() {
		return // type conversion
	}
	// Dynamic dispatch: unknown protocol effect. Must-mode keeps the
	// ambient state and tracked arguments escape via escapeScan; may-mode
	// keeps the pending trace and cleared flag, but the target may store
	// or fence, so any state is possible (the clean proof dies).
	if w.pc.p.May {
		st.bits = w.pc.allBits
	}
}

// applyOp applies one matched protocol op to the path state.
func (w *tsWalker) applyOp(c *opC, call *ast.CallExpr, sel *ast.SelectorExpr, st *tsState) {
	desc := opDesc(call, sel)
	if w.pc.p.PerValue {
		w.applyOpPV(c, call, sel, desc, st)
		return
	}
	p := w.pc.p
	if p.May {
		// May-mode (persistorder): clears reset the pending trace;
		// logged ops append; commit points fire on pending paths. The
		// possible states follow the spec's edges, so a clear taken when
		// its target is already the only possible state is redundant.
		if c.op.Clears {
			if st.bits == w.pc.clean {
				w.sum.redundant = addPos(w.sum.redundant, call.Pos())
			}
			st.bits, st.cleared, st.trace = w.pc.step(c, st.bits), true, nil
			return
		}
		if w.isCommit(c.op.Commit, call) {
			if len(st.trace) > 0 {
				w.report(&ProtoViolation{
					Pos: call.Pos(), OpDesc: desc, OpMsg: c.op.Msg,
					Trace: append([]tsStep(nil), st.trace...),
				})
			}
			if !st.cleared {
				w.addCondClear(call.Pos())
			}
		}
		if c.op.Logged {
			st.trace = addStep(st.trace, tsStep{pos: call.Pos(), desc: desc})
		}
		st.bits = w.pc.step(c, st.bits)
		return
	}
	// Must-mode ambient automaton.
	if c.op.Creates {
		st.bits = 1 << uint(c.toCreate)
		st.trace = addStep(st.trace, tsStep{pos: call.Pos(), desc: desc + ": " + p.States[c.toCreate]})
		return
	}
	next := w.pc.step(c, st.bits)
	if next == 0 {
		w.report(&ProtoViolation{
			Pos: call.Pos(), OpDesc: desc,
			States: w.pc.render(st.bits), Legal: c.legal, OpMsg: c.op.Msg,
			Trace: append([]tsStep(nil), st.trace...),
		})
		// Reset to unknown so one mistake does not cascade.
		st.bits = w.pc.allBits | w.pc.noneBit
		return
	}
	if next != st.bits {
		st.trace = addStep(st.trace, tsStep{pos: call.Pos(), desc: desc + ": " + w.pc.render(next)})
	}
	st.bits = next
}

// addCondClear records a commit point reachable with no prior clear
// since entry (persistorder's commit-no-prior-fence fact).
func (w *tsWalker) addCondClear(pos token.Pos) {
	if w.entryIdx < 0 {
		w.sum.condClear = addPos(w.sum.condClear, pos)
	}
}

// addPos appends pos unless already present.
func addPos(ps []token.Pos, pos token.Pos) []token.Pos {
	for _, p := range ps {
		if p == pos {
			return ps
		}
	}
	return append(ps, pos)
}

// applyOpPV applies a matched op to each tracked value it touches.
func (w *tsWalker) applyOpPV(c *opC, call *ast.CallExpr, sel *ast.SelectorExpr, desc string, st *tsState) {
	if c.op.Creates {
		// Creation is handled at the binding site (bind); a discarded
		// fresh value is not tracked.
		return
	}
	var targets []*objTrack
	if c.op.Recv != "" && sel != nil {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			w.sanctioned[id] = true
			if o := w.lookup(id, st); o != nil {
				targets = append(targets, o)
			}
		}
	}
	if c.op.ArgType != "" {
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if namedTypeIs(w.info().Types[a].Type, c.op.ArgType) {
					w.sanctioned[id] = true
					if o := w.lookup(id, st); o != nil {
						targets = append(targets, o)
					}
				}
			}
		}
	}
	for _, o := range targets {
		w.applyObjOp(c, call.Pos(), desc, o)
	}
}

func (w *tsWalker) applyObjOp(c *opC, pos token.Pos, desc string, o *objTrack) {
	if o.escaped || o.bits == w.pc.noneBit {
		return
	}
	if o.param >= 0 && w.sum.paramUse != nil {
		w.sum.paramUse[o.param] = true
	}
	next := w.pc.step(c, o.bits)
	if next == 0 {
		w.report(&ProtoViolation{
			Pos: pos, OpDesc: desc,
			States: w.pc.render(o.bits &^ w.pc.noneBit), Legal: c.legal, OpMsg: c.op.Msg,
			Trace: append([]tsStep(nil), o.trace...),
		})
		return
	}
	if next != (o.bits &^ w.pc.noneBit) {
		o.trace = addStep(o.trace, tsStep{pos: pos, desc: desc + ": " + w.pc.render(next)})
	}
	o.bits = next
}

func (w *tsWalker) lookup(id *ast.Ident, st *tsState) *objTrack {
	obj := w.info().Uses[id]
	if obj == nil {
		obj = w.info().Defs[id]
	}
	if obj == nil {
		return nil
	}
	return st.objs[obj]
}

// ---------------------------------------------------------------------
// Callee summary application.

func (w *tsWalker) applyCallee(call *ast.CallExpr, fn *types.Func, cs *ProtocolSummary, st *tsState) {
	p := w.pc.p
	if p.May {
		// Historical persistence order: conditional commits first, then
		// the must-clear effect, then pending carried out of the callee.
		if len(cs.condClear) > 0 {
			if len(st.trace) > 0 {
				w.report(&ProtoViolation{
					Pos:    call.Pos(),
					OpDesc: fmt.Sprintf(p.CallViolDesc, fn.Name()),
					Via:    fn.Name(),
					Trace:  append([]tsStep(nil), st.trace...),
				})
			}
			if !st.cleared {
				w.addCondClear(call.Pos())
			}
		}
		w.applyMayExit(call.Pos(), fn, cs, st)
		return
	}
	if p.PerValue {
		w.applyCalleePV(call, fn, cs, st)
		return
	}
	if !cs.touches {
		return
	}
	// Conditional violations fire when they hold for every currently
	// possible entry state (must-mode: no state admits the callee path).
	if cs.cond != nil {
		fired := map[token.Pos]int{}
		var first map[token.Pos]*ProtoViolation
		nbits := 0
		for i := 0; i <= w.pc.nstates; i++ {
			if st.bits&(1<<uint(i)) == 0 {
				continue
			}
			nbits++
			m := cs.cond[i]
			for pos, v := range m {
				fired[pos]++
				if first == nil {
					first = map[token.Pos]*ProtoViolation{}
				}
				if _, ok := first[pos]; !ok {
					first[pos] = v
				}
			}
		}
		var poss []token.Pos
		for pos, n := range fired {
			if n == nbits {
				poss = append(poss, pos)
			}
		}
		sort.Slice(poss, func(i, j int) bool { return poss[i] < poss[j] })
		for _, pos := range poss {
			v := first[pos]
			w.report(&ProtoViolation{
				Pos: call.Pos(), OpDesc: v.OpDesc,
				States: w.pc.render(st.bits), Legal: v.Legal,
				Via: fn.Name(), OpMsg: v.OpMsg,
				Trace: append([]tsStep(nil), st.trace...),
			})
		}
	}
	if next := w.pc.transfer(cs.xfer, st.bits); next != 0 && next != st.bits {
		st.bits = next
		st.trace = addStep(st.trace, tsStep{pos: call.Pos(), desc: "call " + fn.Name() + ": " + w.pc.render(next)})
	}
}

// applyMayExit folds a may-mode callee's exit facts into the path state,
// at a call or at a deferred call's exit replay. Clears are global, so a
// must-clear callee empties the caller's pending trace too; a callee
// with a clean exit leaves only the clear's target possible, and any
// other protocol-touching callee may have stored, so any state is.
func (w *tsWalker) applyMayExit(pos token.Pos, fn *types.Func, cs *ProtocolSummary, st *tsState) {
	if cs.mustClear {
		st.cleared, st.trace = true, nil
	}
	if len(cs.exitTrace) > 0 {
		st.trace = addStep(st.trace, tsStep{pos: pos, desc: fmt.Sprintf(w.pc.p.CallPendingDesc, fn.Name())})
	}
	switch {
	case cs.cleanExit:
		st.bits = w.pc.clean
	case cs.touches:
		st.bits = w.pc.allBits
	}
}

// applyCalleePV applies per-value parameter facts: a callee that uses a
// closed handle is a call-site violation; one that provably closes it
// discharges the caller's obligation; one that escapes it stops
// tracking. Fresh returns are bound at the assignment (bind).
func (w *tsWalker) applyCalleePV(call *ast.CallExpr, fn *types.Func, cs *ProtocolSummary, st *tsState) {
	w.sanctionArgs(call, st, func(argIdx int, o *objTrack) {
		if argIdx >= len(cs.paramUse) {
			// No parameter facts for this position (variadic or an
			// untyped slot): stop tracking conservatively.
			o.escaped = true
			return
		}
		if cs.paramUse[argIdx] && !o.escaped && o.bits != w.pc.noneBit && o.bits&(w.pc.allBits&^w.pc.accept) == 0 {
			w.report(&ProtoViolation{
				Pos: call.Pos(), OpDesc: opDesc(call, nil),
				States: w.pc.render(o.bits &^ w.pc.noneBit),
				Legal:  w.pc.render(w.pc.allBits &^ w.pc.accept),
				Via:    fn.Name(), OpMsg: "the callee uses the handle",
				Trace: append([]tsStep(nil), o.trace...),
			})
		}
		switch {
		case cs.paramEscape[argIdx]:
			o.escaped = true
		case cs.paramClose[argIdx]:
			o.bits = w.pc.accept &^ w.pc.noneBit
			o.trace = addStep(o.trace, tsStep{pos: call.Pos(), desc: "call " + fn.Name() + ": " + w.pc.render(o.bits)})
		}
	})
}

// sanctionArgs marks tracked-ident arguments of an in-module call as
// consumed (not escapes) and optionally applies fn to each.
func (w *tsWalker) sanctionArgs(call *ast.CallExpr, st *tsState, apply func(int, *objTrack)) {
	for i, a := range call.Args {
		id, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		o := w.lookup(id, st)
		if o == nil {
			continue
		}
		w.sanctioned[id] = true
		if apply != nil {
			apply(i, o)
		} else {
			o.escaped = true
		}
	}
}

// ---------------------------------------------------------------------
// Per-value binding, discharge, and escapes.

// bind handles `v, err := Create(...)` (and rebinding assignments to
// unit-local variables): the created value starts tracking in the
// create op's target state, with the sibling error linked for
// nil-guards.
func (w *tsWalker) bind(s *ast.AssignStmt, st *tsState) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	var target int = -1
	if c, _ := w.matchOp(call); c != nil && c.op.Creates {
		target = c.toCreate
	} else if fn := staticCallee(w.info(), call); fn != nil {
		if cs := w.res.sums[fn]; cs != nil && cs.returnsFresh {
			target = w.freshTarget()
		}
	}
	if target < 0 {
		return
	}
	valIdx, errIdx := w.resultIndexes(call)
	if valIdx < 0 || valIdx >= len(s.Lhs) {
		return
	}
	id, ok := ast.Unparen(s.Lhs[valIdx]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.info().Defs[id]
	if obj == nil {
		obj = w.info().Uses[id]
	}
	if obj == nil || !w.insideUnit(obj.Pos()) {
		return
	}
	w.sanctioned[id] = true
	desc := exprString(call.Fun)
	o := &objTrack{
		bits:      1 << uint(target),
		createPos: call.Pos(),
		desc:      desc,
		local:     true,
		param:     -1,
		trace:     []tsStep{{pos: call.Pos(), desc: desc + ": " + w.pc.p.States[target]}},
	}
	if errIdx >= 0 && errIdx < len(s.Lhs) {
		if eid, ok := ast.Unparen(s.Lhs[errIdx]).(*ast.Ident); ok && eid.Name != "_" {
			if eobj := w.info().Defs[eid]; eobj != nil {
				o.err = eobj
			} else if eobj := w.info().Uses[eid]; eobj != nil {
				o.err = eobj
			}
			if o.err != nil {
				// Until the error is checked, the value may be absent.
				o.bits |= w.pc.noneBit
			}
		}
	}
	st.objs[obj] = o
}

// bindDecl handles `var v, err = Create(...)`.
func (w *tsWalker) bindDecl(s *ast.DeclStmt, st *tsState) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 || len(vs.Names) == 0 {
			continue
		}
		// Reuse bind via a synthetic assignment shape.
		lhs := make([]ast.Expr, len(vs.Names))
		for i, n := range vs.Names {
			lhs[i] = n
		}
		w.bind(&ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values}, st)
	}
}

// freshTarget is the state a freshly created value starts in: the
// target of the first Creates op.
func (w *tsWalker) freshTarget() int {
	for i := range w.pc.ops {
		if w.pc.ops[i].op.Creates {
			return w.pc.ops[i].toCreate
		}
	}
	return -1
}

// resultIndexes locates the tracked-type and error components of a
// call's result tuple.
func (w *tsWalker) resultIndexes(call *ast.CallExpr) (valIdx, errIdx int) {
	valIdx, errIdx = -1, -1
	tv, ok := w.info().Types[call]
	if !ok || tv.Type == nil {
		return
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			t := tup.At(i).Type()
			if namedTypeIs(t, w.pc.p.ValueType) && valIdx < 0 {
				valIdx = i
			}
			if isErrorType(t) && errIdx < 0 {
				errIdx = i
			}
		}
		return
	}
	if namedTypeIs(tv.Type, w.pc.p.ValueType) {
		valIdx = 0
	}
	return
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// insideUnit reports whether a position is inside this walk's body —
// assignments to outer-scope variables are escapes, not bindings.
func (w *tsWalker) insideUnit(pos token.Pos) bool {
	return pos >= w.body.Pos() && pos <= w.body.End()
}

// discharge transfers ownership on `return v`: the caller now owns the
// obligation, and the function is marked as returning a fresh value
// when v may still be open.
func (w *tsWalker) discharge(s *ast.ReturnStmt, st *tsState) {
	for _, r := range s.Results {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			if c, _ := w.matchOp(call); c != nil && c.op.Creates {
				w.sum.returnsFresh = true
			} else if fn := staticCallee(w.info(), call); fn != nil {
				if cs := w.res.sums[fn]; cs != nil && cs.returnsFresh {
					w.sum.returnsFresh = true
				}
			}
			continue
		}
		id, ok := ast.Unparen(r).(*ast.Ident)
		if !ok {
			continue
		}
		if o := w.lookup(id, st); o != nil {
			w.sanctioned[id] = true
			if o.local && o.bits&(w.pc.allBits&^w.pc.accept) != 0 {
				w.sum.returnsFresh = true
			}
			o.escaped = true
		}
	}
}

// escapeIn escapes every tracked value referenced inside a subtree (a
// function literal, a go statement): the value's lifetime leaves this
// unit's control flow.
func (w *tsWalker) escapeIn(n ast.Node, st *tsState) {
	if st.objs == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := w.info().Uses[id]; obj != nil {
				if o := st.objs[obj]; o != nil {
					o.escaped = true
				}
			}
		}
		return true
	})
}

// escapeScan escapes tracked values that appear outside any matched op:
// stored into a structure, aliased, taken address of, or passed to an
// unknown call. Selector bases (`v.field`) and nil comparisons are not
// escapes.
func (w *tsWalker) escapeScan(s ast.Stmt, st *tsState) {
	if st.objs == nil {
		return
	}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(s, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // handled by escapeIn
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				skip[id] = true
			}
		case *ast.BinaryExpr:
			if isNilIdent(x.X) || isNilIdent(x.Y) {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					skip[id] = true
				}
				if id, ok := ast.Unparen(x.Y).(*ast.Ident); ok {
					skip[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(s, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok || w.sanctioned[id] || skip[id] {
			return true
		}
		obj := w.info().Uses[id]
		if obj == nil {
			return true
		}
		if o := st.objs[obj]; o != nil {
			o.escaped = true
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Defers.

func (w *tsWalker) deferCall(call *ast.CallExpr, st *tsState) {
	if c, sel := w.matchOp(call); c != nil {
		d := tsDefer{pos: call.Pos(), op: c, desc: opDesc(call, sel), enclosed: call}
		if w.pc.p.PerValue {
			if c.op.Recv != "" && sel != nil {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					w.sanctioned[id] = true
					if obj := w.info().Uses[id]; obj != nil {
						d.recvObj = obj
					}
				}
			}
			if c.op.ArgType != "" {
				for _, a := range call.Args {
					if id, ok := ast.Unparen(a).(*ast.Ident); ok {
						if w.lookup(id, st) != nil {
							w.sanctioned[id] = true
							if obj := w.info().Uses[id]; obj != nil {
								d.argObjs = append(d.argObjs, obj)
							}
						}
					}
				}
			}
		}
		w.addDefer(d)
		return
	}
	if fn := staticCallee(w.info(), call); fn != nil {
		cn := w.mod.Funcs[fn]
		if cn == nil {
			return
		}
		cs := w.res.sums[fn]
		if cs == nil || w.pc.exemptUnit(cn) {
			if w.pc.p.PerValue {
				w.sanctionArgs(call, st, nil)
			}
			return
		}
		if w.pc.p.PerValue {
			w.sanctionArgs(call, st, func(argIdx int, o *objTrack) {
				if argIdx < len(cs.paramEscape) && cs.paramEscape[argIdx] {
					o.escaped = true
				}
			})
		}
		w.addDefer(tsDefer{pos: call.Pos(), callee: cs, cfn: fn, enclosed: call})
		return
	}
	// Unknown deferred call: tracked arguments escape; may-mode replays
	// it at exit as a dynamic call (the clean proof dies).
	if w.pc.p.May {
		w.addDefer(tsDefer{pos: call.Pos()})
	}
	if w.pc.p.PerValue {
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if o := w.lookup(id, st); o != nil {
					o.escaped = true
				}
			}
		}
	}
}

// addDefer registers a deferred effect once per source position (loop
// fixpoints revisit defer statements).
func (w *tsWalker) addDefer(d tsDefer) {
	for _, e := range w.defers {
		if e.pos == d.pos {
			return
		}
	}
	w.defers = append(w.defers, d)
}

func (w *tsWalker) replayDefer(d *tsDefer, ex *tsState) {
	p := w.pc.p
	if d.op != nil {
		switch {
		case p.May:
			if d.op.op.Clears {
				ex.cleared, ex.trace = true, nil
			} else if d.op.op.Logged {
				ex.trace = addStep(ex.trace, tsStep{pos: d.pos, desc: d.desc})
			}
			ex.bits = w.pc.step(d.op, ex.bits)
		case p.PerValue:
			if d.recvObj != nil {
				if o := ex.objs[d.recvObj]; o != nil {
					w.applyObjOp(d.op, d.pos, d.desc, o)
				}
			}
			for _, obj := range d.argObjs {
				if o := ex.objs[obj]; o != nil {
					w.applyObjOp(d.op, d.pos, d.desc, o)
				}
			}
		default:
			w.applyOp(d.op, d.enclosed, nil, ex)
		}
		return
	}
	cs := d.callee
	switch {
	case cs == nil:
		// Unknown deferred call (registered in may-mode only).
		ex.bits = w.pc.allBits
	case p.May:
		w.applyMayExit(d.pos, d.cfn, cs, ex)
	case p.PerValue:
		w.sanctionArgs(d.enclosed, ex, func(argIdx int, o *objTrack) {
			if argIdx < len(cs.paramClose) && cs.paramClose[argIdx] {
				o.bits = w.pc.accept &^ w.pc.noneBit
			}
			if argIdx < len(cs.paramEscape) && cs.paramEscape[argIdx] {
				o.escaped = true
			}
		})
	default:
		if next := w.pc.transfer(cs.xfer, ex.bits); next != 0 {
			ex.bits = next
		}
	}
}

// ---------------------------------------------------------------------
// Module driver.

type protoResult struct {
	pc   *protoC
	sums map[*types.Func]*ProtocolSummary
	lits []*ProtocolSummary
}

// computeTypestate runs every registered protocol bottom-up over the
// SCCs (fixpoint inside recursive components), walks function literals
// as anonymous units, and renders the findings for per-package replay.
// Each protocol's wall time is charged to its analyzer.
func computeTypestate(mod *ModuleInfo, out *passOut) {
	for _, p := range Protocols() {
		out.timed(mod, p.Name, func(mod *ModuleInfo, out *passOut) {
			res := &protoResult{pc: compileProtocol(p), sums: map[*types.Func]*ProtocolSummary{}}
			computeProtocol(mod, res, out)
			mod.typestate = append(mod.typestate, res)
		})
	}
}

// touched reports whether a function performs protocol ops directly or
// through a summarized callee.
func (res *protoResult) touched(n *FuncNode) bool {
	for name := range res.pc.opNames {
		if n.callNames[name] {
			return true
		}
	}
	if res.pc.p.PerValue {
		// A tracked-type parameter makes the function protocol-relevant
		// even without a named op (wildcard uses, escapes).
		if sig, ok := n.Obj.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				if namedTypeIs(sig.Params().At(i).Type(), res.pc.p.ValueType) {
					return true
				}
			}
		}
	}
	for _, c := range n.Callees {
		if cs := res.sums[c.Obj]; cs != nil && cs.touches {
			return true
		}
	}
	return false
}

func computeProtocol(mod *ModuleInfo, res *protoResult, out *passOut) {
	pc := res.pc
	summarize := func(n *FuncNode) *ProtocolSummary {
		sum := &ProtocolSummary{node: n}
		if pc.exemptUnit(n) || !res.touched(n) {
			return sum
		}
		sum.touches = true
		localPos := map[token.Pos]bool{}
		walkUnit(mod, res, n, n.Decl.Body, false, sum, -1, localPos)
		if !pc.p.May && !pc.p.PerValue {
			// Conditional walks: one per possible entry state, feeding
			// the entry-keyed transfer and violation maps.
			for i := 0; i <= pc.nstates; i++ {
				walkUnit(mod, res, n, n.Decl.Body, false, sum, i, localPos)
			}
		}
		return sum
	}
	empty := func(n *FuncNode) *ProtocolSummary { return &ProtocolSummary{node: n} }
	sccFixpoint(mod, res.sums, empty, summarize, nil)
	// A literal can only report through an op or a touching callee, and
	// touched(n) already counts both inside n's literals (callNames and
	// Callees cover them), so untouched functions skip their literals.
	for _, n := range mod.Nodes {
		if pc.exemptUnit(n) || !res.touched(n) {
			continue
		}
		for _, lit := range n.lits {
			sum := &ProtocolSummary{node: n, lit: true}
			walkUnit(mod, res, n, lit.Body, true, sum, -1, nil)
			if len(sum.viols) > 0 || len(sum.redundant) > 0 {
				res.lits = append(res.lits, sum)
			}
		}
	}
	// Render findings in deterministic unit order for replay.
	emit := func(sum *ProtocolSummary) {
		for _, v := range sum.viols {
			out.report(pc.p.Name, modDiag{
				Pkg:   sum.node.Pkg,
				Pos:   v.Pos,
				Msg:   pc.renderViol(v, sum.node.Pkg.Fset),
				Trace: stepsToTrace(v.Trace, sum.node.Pkg.Fset),
			})
		}
	}
	for _, n := range mod.Nodes {
		if sum := res.sums[n.Obj]; sum != nil {
			emit(sum)
		}
	}
	for _, sum := range res.lits {
		emit(sum)
	}
}

func stepsToTrace(steps []tsStep, fset *token.FileSet) []TraceStep {
	out := make([]TraceStep, 0, len(steps))
	for _, s := range steps {
		out = append(out, TraceStep{Pos: fset.Position(s.pos), Desc: s.desc})
	}
	return out
}

// renderViol formats one violation: the protocol's custom renderer when
// set (persistorder), the leak shape for per-value obligations, and the
// illegal-edge shape otherwise.
func (pc *protoC) renderViol(v *ProtoViolation, fset *token.FileSet) string {
	if pc.p.Render != nil {
		return pc.p.Render(v, fset)
	}
	if v.Leak {
		return fmt.Sprintf(pc.p.LeakMsg, v.OpDesc)
	}
	var b strings.Builder
	if v.Via != "" {
		fmt.Fprintf(&b, "call to %s executes %s with the %s protocol in state %s (legal in: %s)",
			v.Via, v.OpDesc, pc.p.Object, v.States, v.Legal)
	} else {
		fmt.Fprintf(&b, "%s called with the %s protocol in state %s (legal in: %s)",
			v.OpDesc, pc.p.Object, v.States, v.Legal)
	}
	if v.OpMsg != "" {
		b.WriteString("; ")
		b.WriteString(v.OpMsg)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Public surface: stats and partition.

// protocolResult returns the engine result of the protocol reporting
// under an analyzer name, or nil.
func (m *ModuleInfo) protocolResult(name string) *protoResult {
	for _, res := range m.typestate {
		if res.pc.p.Name == name {
			return res
		}
	}
	return nil
}

// ProtocolStats reports the state and transition counts of the protocol
// behind a registry analyzer name (for `easyio-vet -list`).
func ProtocolStats(name string) (states, transitions int, ok bool) {
	for _, p := range Protocols() {
		if p.Name == name {
			n := 0
			for i := range p.Ops {
				n += len(p.Ops[i].Trans)
			}
			return len(p.States), n, true
		}
	}
	return 0, 0, false
}

// ProtocolStatus is one automaton's certification in partition.json.
type ProtocolStatus struct {
	Name        string `json:"name"`
	Object      string `json:"object"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Findings    int    `json:"findings"`
	Status      string `json:"status"`
}

// ProtocolStatuses renders every protocol's module-wide certification
// (pre-suppression finding counts, like UnguardedFindings).
func (m *ModuleInfo) ProtocolStatuses() []ProtocolStatus {
	var out []ProtocolStatus
	for _, res := range m.typestate {
		states, transitions, _ := ProtocolStats(res.pc.p.Name)
		findings := len(m.findings[res.pc.p.Name])
		st := "clean"
		if findings > 0 {
			st = "violated"
		}
		out = append(out, ProtocolStatus{
			Name:        res.pc.p.Name,
			Object:      res.pc.p.Object,
			States:      states,
			Transitions: transitions,
			Findings:    findings,
			Status:      st,
		})
	}
	return out
}
