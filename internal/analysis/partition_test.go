package analysis

import "testing"

// TestPartitionCountsViolations pins the partition counters CI gates on
// ("unguarded_findings": 0, every protocol "clean") to real violations,
// so a counter reading the wrong findings cannot pass those gates
// vacuously.
func TestPartitionCountsViolations(t *testing.T) {
	sim := fixturePkg(t, "example.com/m/internal/sim", `package sim

type State struct{ n int }

func (s *State) Bump() { s.n++ }

func Spawn(s *State) {
	go func() { s.Bump() }()
}
`)
	svc := fixturePkg(t, servicePath, svcFixture+`
func Bad() {
	s := New()
	s.StartManager()
	s.End()
	s.Inject()
}
`)
	rep := BuildPartition(BuildModule([]*Package{sim, svc}), "")
	if rep.UnguardedFindings != 1 {
		t.Errorf("unguarded_findings = %d, want 1", rep.UnguardedFindings)
	}
	if len(rep.Protocols) != len(Protocols()) {
		t.Fatalf("%d protocol rows, want %d", len(rep.Protocols), len(Protocols()))
	}
	for _, ps := range rep.Protocols {
		want := ProtocolStatus{Status: "clean"}
		if ps.Name == SvcLifecycle.Name {
			want = ProtocolStatus{Status: "violated", Findings: 1}
		}
		if ps.Status != want.Status || ps.Findings != want.Findings {
			t.Errorf("protocol %s: status %q with %d finding(s), want %q with %d", ps.Name, ps.Status, ps.Findings, want.Status, want.Findings)
		}
	}
}
