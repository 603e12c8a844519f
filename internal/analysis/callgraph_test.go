package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestCallGraphDynamicDispatch pins exactly which call shapes the call
// graph resolves: the interprocedural analyses (and the confinement
// escape scan built on the same resolution) see static calls only, so
// each hole here is a documented soundness boundary, not an accident.
func TestCallGraphDynamicDispatch(t *testing.T) {
	pkg := fixturePkg(t, "", `package fixture

type Iface interface{ M() }

type Impl struct{ n int }

func (i *Impl) M() { i.n++ }

func helper() {}

func direct(i *Impl)       { i.M() }     // static: resolves to (*Impl).M
func plain()               { helper() }  // static: resolves to helper
func dynamic(i Iface)      { i.M() }     // interface dispatch: unresolved
func value(f func())       { f() }       // function value: unresolved
func methodValue(i *Impl)  { f := i.M; f() } // method value: unresolved
func methodExpr(i *Impl)   { (*Impl).M(i) }  // method expression: unresolved
`)
	mod := BuildModule([]*Package{pkg})

	calleeNames := func(fn string) []string {
		t.Helper()
		for _, n := range mod.Nodes {
			if n.Decl.Name.Name == fn {
				var out []string
				for _, c := range n.Callees {
					out = append(out, c.Decl.Name.Name)
				}
				return out
			}
		}
		t.Fatalf("function %s not in module", fn)
		return nil
	}

	for _, tc := range []struct {
		fn   string
		want []string
	}{
		{"direct", []string{"M"}},
		{"plain", []string{"helper"}},
		{"dynamic", nil},
		{"value", nil},
		{"methodValue", nil},
		{"methodExpr", nil},
	} {
		got := calleeNames(tc.fn)
		if len(got) != len(tc.want) {
			t.Errorf("%s resolves callees %v, want %v", tc.fn, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s resolves callees %v, want %v", tc.fn, got, tc.want)
				break
			}
		}
	}
}

// TestTarjan checks the generic SCC decomposition against a brute-force
// oracle on small graphs: two nodes share an SCC exactly when each
// reaches the other, and every SCC is emitted after every SCC it reaches
// (the bottom-up order the summary fixpoint and lockorder's cycle scan
// rely on).
func TestTarjan(t *testing.T) {
	cases := []struct {
		name  string
		nodes []string
		edges map[string][]string
	}{
		{"self-loop", []string{"a", "b"}, map[string][]string{"a": {"a", "b"}}},
		{"2-cycle", []string{"a", "b"}, map[string][]string{"a": {"b"}, "b": {"a"}}},
		{"3-cycle with a tail", []string{"t", "a", "b", "c", "u"},
			map[string][]string{"t": {"a"}, "a": {"b"}, "b": {"c"}, "c": {"a", "u"}}},
		{"diamond", []string{"a", "b", "c", "d"},
			map[string][]string{"a": {"b", "c"}, "b": {"d"}, "c": {"d"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			succ := func(v string) []string { return tc.edges[v] }
			// reach[v][u]: u is reachable from v (reflexively).
			reach := map[string]map[string]bool{}
			for _, v := range tc.nodes {
				reach[v] = map[string]bool{v: true}
				for work := []string{v}; len(work) > 0; {
					x := work[len(work)-1]
					work = work[:len(work)-1]
					for _, u := range succ(x) {
						if !reach[v][u] {
							reach[v][u] = true
							work = append(work, u)
						}
					}
				}
			}
			sccs := tarjan(tc.nodes, succ)
			sccOf := map[string]int{}
			for i, scc := range sccs {
				for _, v := range scc {
					if _, dup := sccOf[v]; dup {
						t.Fatalf("%s is in two SCCs: %v", v, sccs)
					}
					sccOf[v] = i
				}
			}
			for _, v := range tc.nodes {
				if _, ok := sccOf[v]; !ok {
					t.Fatalf("%s is in no SCC: %v", v, sccs)
				}
				for _, u := range tc.nodes {
					mutual := reach[v][u] && reach[u][v]
					if same := sccOf[v] == sccOf[u]; same != mutual {
						t.Errorf("%s, %s: same SCC %v, mutually reachable %v; SCCs %v", v, u, same, mutual, sccs)
					}
					if reach[v][u] && sccOf[u] > sccOf[v] {
						t.Errorf("%s reaches %s but its SCC is emitted first; SCCs %v", v, u, sccs)
					}
				}
			}
		})
	}
}

// seededModule is one fixture module with at least one finding for
// every module-wide analyzer: each package is an analyzer's own fixture
// (typestate_test.go, persistfixtures_test.go, hotpath_test.go, ...) plus
// a violation, and lockorder and svclifecycle each have one inside a
// function literal, so the literal walks are covered too.
func seededModule(t *testing.T) []*Package {
	t.Helper()
	return fixtureModule(t, "example.com/m", []fixtureSrc{
		{"example.com/m/internal/sim", clusterFixture + `
func BadCluster() {
	c := NewCluster()
	c.AddDomain()
	c.Run()
	c.Link()
}

type State struct{ n int }

func (s *State) Bump() { s.n++ }

func Spawn(s *State) {
	go func() { s.Bump() }()
}
`},
		{"example.com/m/internal/service", svcFixture + `
func BadServer() {
	s := New()
	s.StartManager()
	s.End()
	s.Inject()
}

func BadServerLit() func() {
	return func() {
		s := New()
		s.Inject()
	}
}
`},
		{"example.com/m/internal/core", managerFixture + `
func BadManager() {
	m := NewManager()
	m.Start()
	m.RegisterLApp()
}
`},
		{"example.com/m/fx/handle", handleFixture + `
func BadHandle(fs *FS, b []byte) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	fs.ReadAt(f, 0, b)
}
`},
		{"example.com/m/fx/parity", parityFixture + `
func BadEpoch(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
}
`},
		{"example.com/m/fx/persist", deviceFixture + `
func BadOrder(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.WriteAt(JournalOff, b)
	d.Fence()
}

func BadFence(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.Fence()
	d.Fence()
}
`},
		{"example.com/m/fx/locks", lockOrderPrelude + `
func grabAB(a *A, b *B) {
	a.Mu.Lock()
	b.Mu.Lock()
	b.Mu.Unlock()
	a.Mu.Unlock()
}

func grabBA(a *A, b *B) {
	defer func() {
		b.Mu.Lock()
		a.Mu.Lock()
		a.Mu.Unlock()
		b.Mu.Unlock()
	}()
}
`},
		{"example.com/m/fx/atomic", `package fixture

import "sync/atomic"

type Counter struct{ n int64 }

func (c *Counter) Inc() { atomic.AddInt64(&c.n, 1) }

func (c *Counter) Read() int64 { return c.n }
`},
		{"example.com/m/fx/hot", hotFixturePrelude + `
func sink(v any) {}

//easyio:hotpath
func (e *Engine) step() {
	e.buf = make([]byte, 64)
	sink(42)
}

//easyio:hotpath
//easyio:coldpath
func (e *Engine) drain() { e.queue = e.queue[:0] }
`},
	})
}

// moduleDigest renders everything BuildModule's parallel passes decide:
// every analyzer's findings in order, the ms key set, the typestate
// protocol order, and the partition report.
func moduleDigest(t *testing.T, mod *ModuleInfo) string {
	t.Helper()
	var b strings.Builder
	for _, name := range sortedKeys(mod.findings) {
		for _, d := range mod.findings[name] {
			fmt.Fprintf(&b, "%s %s %s %s\n", name, d.Pkg.Path, d.Pkg.Fset.Position(d.Pos), d.Msg)
			for _, s := range d.Trace {
				fmt.Fprintf(&b, "\t%s %s\n", s.Pos, s.Desc)
			}
		}
	}
	fmt.Fprintf(&b, "ms %v\n", sortedKeys(mod.ms))
	for _, res := range mod.typestate {
		fmt.Fprintf(&b, "typestate %s\n", res.pc.p.Name)
	}
	part, err := json.Marshal(BuildPartition(mod, ""))
	if err != nil {
		t.Fatal(err)
	}
	b.Write(part)
	return b.String()
}

// TestBuildModuleDeterministicAcrossGOMAXPROCS builds the seeded module
// with BuildModule's passes on one worker and on four: the findings,
// timing keys, protocol order and partition must not depend on which
// job finished first.
func TestBuildModuleDeterministicAcrossGOMAXPROCS(t *testing.T) {
	pkgs := seededModule(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := moduleDigest(t, BuildModule(pkgs))
	mod := BuildModule(pkgs)
	names := []string{"lockorder", "confinement", "atomichygiene", "noalloc", "boxing", "hotpathcover", "fencehygiene"}
	for _, p := range Protocols() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		if len(mod.findings[name]) == 0 {
			t.Errorf("seeded module has no %s finding", name)
		}
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := range 5 {
			if got := moduleDigest(t, BuildModule(pkgs)); got != want {
				t.Fatalf("GOMAXPROCS=%d build %d differs from the serial build:\n got: %s\nwant: %s", procs, i, got, want)
			}
		}
	}
}

// TestFuncNodeLits checks the function literals the call-graph scan
// records against the walk they replace: a pre-order ast.Inspect of the
// body, nested and deferred literals included.
func TestFuncNodeLits(t *testing.T) {
	check := func(t *testing.T, mod *ModuleInfo) (lits int) {
		t.Helper()
		for _, n := range mod.Nodes {
			var want []*ast.FuncLit
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					want = append(want, lit)
				}
				return true
			})
			if !slices.Equal(n.lits, want) {
				t.Errorf("%s: recorded %d literals, an Inspect of the body finds %d (or a different order)", n.Obj.FullName(), len(n.lits), len(want))
			}
			lits += len(want)
		}
		return lits
	}
	t.Run("fixture", func(t *testing.T) {
		pkg := fixturePkg(t, "", `package fixture

func run(f func()) { f() }

func nested() {
	defer func() {
		run(func() {
			_ = func() int { return 1 }
		})
	}()
	go func() {}()
	run(func() {})
}
`)
		if got := check(t, BuildModule([]*Package{pkg})); got != 5 {
			t.Fatalf("fixture has %d literals, want 5", got)
		}
	})
	t.Run("module", func(t *testing.T) {
		if testing.Short() {
			t.Skip("loads and type-checks the whole module")
		}
		root, err := filepath.Abs("../..")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := LoadModule(root)
		if err != nil {
			t.Fatal(err)
		}
		if check(t, BuildModule(pkgs)) == 0 {
			t.Fatal("the module has no function literals")
		}
	})
}
