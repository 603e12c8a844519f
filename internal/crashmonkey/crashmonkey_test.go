package crashmonkey

import (
	"fmt"
	"strings"
	"testing"

	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
)

// Small targeted runs keep test time low; easyio-bench -exp table2 runs the
// full 1000-point Table 2 sweep.
func runWorkload(t *testing.T, w Workload, points int) *Report {
	t.Helper()
	rep, err := Test(w, Config{TargetPoints: points, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if rep.Failed() > 0 {
		max := 3
		if len(rep.Failures) < max {
			max = len(rep.Failures)
		}
		t.Fatalf("%s: %d/%d crash states failed:\n%s",
			w.Name, rep.Failed(), rep.CrashPoints, strings.Join(rep.Failures[:max], "\n---\n"))
	}
	return rep
}

func TestCreateDelete(t *testing.T) { runWorkload(t, CreateDelete(), 150) }
func TestGeneric056(t *testing.T)   { runWorkload(t, Generic056(), 150) }
func TestGeneric090(t *testing.T)   { runWorkload(t, Generic090(), 150) }
func TestGeneric322(t *testing.T)   { runWorkload(t, Generic322(), 150) }

func TestReportCountsConsistent(t *testing.T) {
	rep := runWorkload(t, Generic056(), 80)
	if rep.CrashPoints != 80 {
		t.Fatalf("crash points = %d, want 80", rep.CrashPoints)
	}
	if rep.Passed != rep.CrashPoints-len(rep.Failures) {
		t.Fatal("report arithmetic inconsistent")
	}
}

func TestAllWorkloadsDefined(t *testing.T) {
	ws := All()
	if len(ws) != 4 {
		t.Fatalf("expected 4 workloads, got %d", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if len(w.Ops) == 0 {
			t.Fatalf("%s has no ops", w.Name)
		}
		names[w.Name] = true
	}
	for _, want := range []string{"create_delete", "generic_056", "generic_090", "generic_322"} {
		if !names[want] {
			t.Fatalf("missing workload %s", want)
		}
	}
}

// TestFileLineMatchesSprintf: capture's file line is byte-identical to the
// fmt form it replaced, for empty, short and page-sized contents.
func TestFileLineMatchesSprintf(t *testing.T) {
	page := make([]byte, 4096)
	rng.New(5).Bytes(page)
	for _, c := range []struct {
		path string
		st   nova.Stat
		data []byte
	}{
		{"/a", nova.Stat{Nlink: 1}, nil},
		{"/d/b", nova.Stat{Nlink: 2, Size: 3}, []byte{0, 0xab, 0xff}},
		{"/dir/long-name", nova.Stat{Nlink: 4294967295, Size: 4096}, page},
	} {
		want := fmt.Sprintf("F %s nlink=%d size=%d %x", c.path, c.st.Nlink, c.st.Size, c.data)
		if got := fileLine(c.path, c.st, c.data); got != want {
			t.Fatalf("fileLine(%q) = %q, want %q", c.path, got, want)
		}
	}
}
