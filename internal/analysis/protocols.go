package analysis

// This file declares the typestate protocol specifications the engine in
// typestate.go checks, and registers one analyzer per protocol. Each
// spec is plain data: states, transitions keyed by method/function
// matchers, and a rationale per illegal edge. Adding a protocol is a new
// Protocol literal plus a registry entry (see DESIGN.md for the recipe);
// the engine provides path sensitivity, interprocedural summaries,
// defer replay, and state traces for free.
//
// The subjects' own methods implement their protocols, so their
// declaring receivers (and, for handles, the nova package) are exempt
// from the walk — the automata constrain users, not implementations.

// anyArgs marks an op matcher that accepts any argument count.
const anyArgs = -1

// svcLifecycleProtocol is the request-lifecycle automaton of a
// service.Server: construction, arrival/manager split-start, steady
// state, drain, and teardown. The paper's serving experiments depend on
// this order — arrivals injected after End() land in a drained queue,
// and a second Finish() double-frees the manager epoch state.
var svcLifecycleProtocol = &Protocol{
	Name:        "svclifecycle",
	Doc:         "service.Server lifecycle: New -> StartArrivals -> StartManager -> Inject* -> End -> Finish, no Inject after End, no double Finish",
	Object:      "service.Server",
	States:      []string{"born", "arming", "running", "ending", "finished"},
	ExemptRecvs: []string{"Server"},
	Ops: []ProtoOp{
		{Name: "New", PkgSuffix: "internal/service", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "born"}}},
		{Name: "StartArrivals", Recv: "Server", NArgs: anyArgs,
			Trans: [][2]string{{"born", "arming"}},
			Msg:   "arrivals start exactly once, before the manager"},
		{Name: "StartManager", Recv: "Server", NArgs: anyArgs,
			Trans: [][2]string{{"born", "running"}, {"arming", "running"}},
			Msg:   "the manager starts once, after construction (arrivals optional)"},
		{Name: "Inject", Recv: "Server", NArgs: anyArgs,
			Trans: [][2]string{{"running", "running"}},
			Msg:   "requests may only be injected while the server is running (after StartManager, before End)"},
		{Name: "End", Recv: "Server", NArgs: anyArgs,
			Trans: [][2]string{{"born", "born"}, {"arming", "arming"}, {"running", "ending"}, {"ending", "ending"}},
			Msg:   "End marks the drain point; it cannot follow Finish"},
		{Name: "Finish", Recv: "Server", NArgs: anyArgs,
			Trans: [][2]string{{"running", "finished"}, {"ending", "finished"}},
			Msg:   "Finish tears the server down exactly once, after it ran"},
	},
}

// horizonProtocol is the sim.Cluster lifecycle automaton: topology
// (AddDomain/Link) is declared while building, Run drives the shared
// engine once, and Domain.Send is only legal from event context — i.e.
// from domain handlers (closures), never from coordinator code that
// provably holds the cluster in a concrete build/ran/down state.
var horizonProtocol = &Protocol{
	Name:        "horizonproto",
	Doc:         "sim.Cluster protocol: AddDomain/Link before Run, Shutdown after Run, Domain.Send only from event context",
	Object:      "sim.Cluster",
	States:      []string{"building", "ran", "down", "event"},
	ExemptRecvs: []string{"Cluster", "Domain"},
	Ops: []ProtoOp{
		{Name: "NewCluster", PkgSuffix: "internal/sim", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "building"}}},
		{Name: "AddDomain", Recv: "Cluster", NArgs: anyArgs,
			Trans: [][2]string{{"building", "building"}},
			Msg:   "topology is fixed once the cluster runs"},
		{Name: "Link", Recv: "Cluster", NArgs: anyArgs,
			Trans: [][2]string{{"building", "building"}},
			Msg:   "links must be declared before Run, while the topology is still open"},
		{Name: "Run", Recv: "Cluster", NArgs: anyArgs,
			Trans: [][2]string{{"building", "ran"}},
			Msg:   "a cluster runs once, after its topology is declared"},
		{Name: "Shutdown", Recv: "Cluster", NArgs: anyArgs,
			Trans: [][2]string{{"ran", "down"}},
			Msg:   "Shutdown unwinds the engine's procs after Run returns; no sends may follow"},
		// "event" is never the target of any coordinator transition: a
		// Send is legal only where the cluster state is unknown (domain
		// handlers and other closures running as engine events), and
		// illegal wherever the coordinator provably holds a concrete
		// lifecycle state.
		{Name: "Send", Recv: "Domain", NArgs: anyArgs,
			Trans: [][2]string{{"event", "event"}},
			Msg:   "cross-domain sends run in event context (inside a domain handler), not from coordinator code"},
	},
}

// epochBudgetProtocol is the channel-manager epoch automaton: LApps and
// the bandwidth limit are configured, the epoch ticker starts, Report
// feeds it only while it runs, and Stop retires it. Reports against a
// stopped (or unstarted) manager silently drop budget accounting — the
// redundancy-epoch failure mode the ROADMAP calls out.
var epochBudgetProtocol = &Protocol{
	Name:        "epochbudget",
	Doc:         "core.Manager epoch budget: RegisterLApp before Start, SetBLimit while configured or running, Report only while running, Stop once",
	Object:      "core.Manager",
	States:      []string{"cfg", "running", "stopped"},
	ExemptRecvs: []string{"Manager", "LApp"},
	Ops: []ProtoOp{
		{Name: "NewManager", PkgSuffix: "internal/core", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "cfg"}}},
		{Name: "RegisterLApp", Recv: "Manager", NArgs: anyArgs,
			Trans: [][2]string{{"cfg", "cfg"}},
			Msg:   "latency apps register before the epoch ticker starts, so the first epoch sees the full set"},
		{Name: "SetBLimit", Recv: "Manager", NArgs: anyArgs,
			Trans: [][2]string{{"cfg", "cfg"}, {"running", "running"}},
			Msg:   "the bandwidth limit is adjustable until Stop retires the manager"},
		{Name: "Start", Recv: "Manager", NArgs: anyArgs,
			Trans: [][2]string{{"cfg", "running"}, {"running", "running"}},
			Msg:   "Start arms the epoch ticker (idempotent); a stopped manager cannot restart"},
		{Name: "Stop", Recv: "Manager", NArgs: anyArgs,
			Trans: [][2]string{{"running", "stopped"}},
			Msg:   "Stop retires the ticker once, after it ran"},
		{Name: "Report", Recv: "LApp", NArgs: anyArgs,
			Trans: [][2]string{{"running", "running"}},
			Msg:   "latency reports feed epoch accounting only while the manager runs; reports outside it are silently dropped"},
	},
}

// handleStateProtocol is the per-handle automaton over nova file
// handles obtained through the fsapi surface: open -> use* -> close,
// no use after close, and close (or ownership transfer) on every path
// including error arms. internal/nova implements the handles, so it is
// exempt.
var handleStateProtocol = &Protocol{
	Name:       "handlestate",
	Doc:        "fsapi/nova file handles: Open/Create -> use -> Close, no use-after-close, close on all paths (error arms included)",
	Object:     "nova.File",
	States:     []string{"open", "closed"},
	Accept:     []string{"closed"},
	PerValue:   true,
	ValueType:  "File",
	ExemptPkgs: []string{"internal/nova"},
	LeakMsg:    "file handle from %s is not closed on every path (error arms included) — call Close or transfer ownership before returning",
	Ops: []ProtoOp{
		{Name: "Create", ResultType: "File", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "open"}}},
		{Name: "Open", ResultType: "File", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "open"}}},
		{Name: "OpenOrCreate", ResultType: "File", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "open"}}},
		{Name: "ReadAt", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "reads require an open handle"},
		{Name: "WriteAt", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "writes require an open handle"},
		{Name: "ReadAtClass", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "reads require an open handle"},
		{Name: "WriteAtClass", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "writes require an open handle"},
		{Name: "Append", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "appends require an open handle"},
		{Name: "Truncate", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "truncate requires an open handle"},
		{Name: "Fsync", ArgType: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "fsync requires an open handle"},
		{Name: "Close", Recv: "File", NArgs: 0,
			Trans: [][2]string{{"open", "closed"}},
			Msg:   "a handle closes exactly once"},
		{Name: "*", Recv: "File", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}},
			Msg:   "handle methods require an open handle"},
	},
}

// parityEpochProtocol is the per-epoch automaton over redundancy epochs:
// OpenEpoch -> Seal -> Compute -> Persist -> Advance, with Abandon as the
// any-state escape hatch (the crash harness's way of modeling a crash
// mid-epoch). The order is load-bearing: Seal journals the dirty set
// before parity is rebuilt, and Persist's commit fence assumes the
// parity stores already happened — a skipped or repeated stage corrupts
// the crash story recovery depends on. One epoch is in flight at a
// time, so an un-retired epoch also wedges the tracker.
// internal/redundancy implements the state machine, so it is exempt;
// external drivers (crashmonkey, benches) are machine-checked.
var parityEpochProtocol = &Protocol{
	Name:       "parityepoch",
	Doc:        "redundancy.Epoch lifecycle: OpenEpoch -> Seal -> Compute -> Persist -> Advance (Abandon from any state), no stage skipped or repeated, every epoch retired on every path",
	Object:     "redundancy.Epoch",
	States:     []string{"open", "sealed", "computed", "persisted", "advanced"},
	Accept:     []string{"advanced"},
	PerValue:   true,
	ValueType:  "Epoch",
	ExemptPkgs: []string{"internal/redundancy"},
	LeakMsg:    "redundancy epoch from %s is neither advanced nor abandoned on every path — a leaked epoch wedges the tracker (one epoch in flight) and leaves committed < sealed",
	Ops: []ProtoOp{
		{Name: "OpenEpoch", ResultType: "Epoch", NArgs: anyArgs, Creates: true,
			Trans: [][2]string{{"", "open"}}},
		{Name: "Seal", Recv: "Epoch", NArgs: anyArgs,
			Trans: [][2]string{{"open", "sealed"}},
			Msg:   "Seal journals the open dirty set exactly once, before any parity is computed"},
		{Name: "Compute", Recv: "Epoch", NArgs: anyArgs,
			Trans: [][2]string{{"sealed", "computed"}},
			Msg:   "parity is computed from a sealed (journaled) dirty set, never from the live one"},
		{Name: "Persist", Recv: "Epoch", NArgs: anyArgs,
			Trans: [][2]string{{"computed", "persisted"}},
			Msg:   "Persist's commit fence assumes the parity stores already happened (Compute first)"},
		{Name: "Advance", Recv: "Epoch", NArgs: anyArgs,
			Trans: [][2]string{{"persisted", "advanced"}},
			Msg:   "Advance retires a persisted epoch; an unpersisted one must be Abandoned instead"},
		{Name: "Abandon", Recv: "Epoch", NArgs: anyArgs,
			Trans: [][2]string{{"open", "advanced"}, {"sealed", "advanced"}, {"computed", "advanced"}, {"persisted", "advanced"}, {"advanced", "advanced"}},
			Msg:   "Abandon drops the epoch without persisting (the crash-harness escape)"},
		{Name: "*", Recv: "Epoch", NArgs: anyArgs,
			Trans: [][2]string{{"open", "open"}, {"sealed", "sealed"}, {"computed", "computed"}, {"persisted", "persisted"}},
			Msg:   "epoch accessors require a live (un-retired) epoch"},
	},
}

// Protocols returns every registered typestate specification, in
// engine execution (and partition report) order.
func Protocols() []*Protocol {
	return []*Protocol{
		svcLifecycleProtocol,
		horizonProtocol,
		epochBudgetProtocol,
		handleStateProtocol,
		parityEpochProtocol,
		persistProtocol,
	}
}

// runProtocol replays the engine's precomputed findings for one
// protocol into the current package's pass.
func runProtocol(name string) func(*Pass) {
	return func(pass *Pass) {
		if pass.Mod == nil {
			return
		}
		for _, d := range pass.Mod.typestateDiags(name) {
			if d.Pkg == pass.Pkg {
				pass.reportTrace(d.Pos, d.Msg, d.Trace)
			}
		}
	}
}

// SvcLifecycle checks the service.Server request-lifecycle automaton.
var SvcLifecycle = &Analyzer{
	Name: svcLifecycleProtocol.Name,
	Doc:  svcLifecycleProtocol.Doc,
	Run:  runProtocol(svcLifecycleProtocol.Name),
}

// HorizonProto checks the sim.Cluster lifecycle automaton.
var HorizonProto = &Analyzer{
	Name: horizonProtocol.Name,
	Doc:  horizonProtocol.Doc,
	Run:  runProtocol(horizonProtocol.Name),
}

// EpochBudget checks the channel-manager epoch-budget automaton.
var EpochBudget = &Analyzer{
	Name: epochBudgetProtocol.Name,
	Doc:  epochBudgetProtocol.Doc,
	Run:  runProtocol(epochBudgetProtocol.Name),
}

// HandleState checks the per-handle open/use/close automaton.
var HandleState = &Analyzer{
	Name: handleStateProtocol.Name,
	Doc:  handleStateProtocol.Doc,
	Run:  runProtocol(handleStateProtocol.Name),
}

// ParityEpoch checks the redundancy epoch lifecycle automaton.
var ParityEpoch = &Analyzer{
	Name: parityEpochProtocol.Name,
	Doc:  parityEpochProtocol.Doc,
	Run:  runProtocol(parityEpochProtocol.Name),
}
