package analysis

import "testing"

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
