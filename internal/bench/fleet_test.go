package bench

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

// fleetDigest runs one short fleet cell at a given SimWorkers value and
// returns its digest (SimWorkers is restored afterwards).
func fleetDigest(t *testing.T, workers int, seed uint64) string {
	t.Helper()
	old := SimWorkers
	SimWorkers = workers
	defer func() { SimWorkers = old }()
	cell := fleetCell(3*sim.Millisecond, seed)
	if cell.Acked == 0 {
		t.Fatal("fleet cell acked zero requests; digest is vacuous")
	}
	return cell.Digest
}

// TestFleetWorkerMatrix is the multi-domain determinism gate: the fleet
// cell's digest — router counters, RTT histogram, every node's full
// service accounting, every engine's clock and sequence — must be
// byte-identical for workers in {1, 2, 4, 8}. This is where conservative
// lookahead earns its keep: the merge order of cross-domain handoffs,
// not the host scheduler, fixes the interleaving.
func TestFleetWorkerMatrix(t *testing.T) {
	want := fleetDigest(t, 1, 42)
	for _, w := range []int{2, 4, 8} {
		if got := fleetDigest(t, w, 42); got != want {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", w, got, want)
		}
	}
}

// TestFleetSeedSensitivity proves the fleet digest discriminates: the
// multi-domain merge must propagate seed changes, not average them away.
func TestFleetSeedSensitivity(t *testing.T) {
	a := fleetDigest(t, 4, 42)
	b := fleetDigest(t, 4, 43)
	if a == b {
		t.Fatalf("seeds 42 and 43 produced identical fleet digest %s", a)
	}
}

// fig9SliceDigest runs a small fig9 job slice through the job pool at a
// given SimWorkers value and folds the points into a string.
func fig9SliceDigest(t *testing.T, workers int, seed uint64) string {
	t.Helper()
	old := SimWorkers
	SimWorkers = workers
	defer func() { SimWorkers = old }()
	jobs := []fig9Job{
		{fxmark.DWAL, 16 << 10, SysEasyIO, 2},
		{fxmark.DRBL, 16 << 10, SysNOVA, 4},
		{fxmark.DWAL, 64 << 10, SysOdinfs, 2},
		{fxmark.DRBL, 64 << 10, SysNOVADMA, 2},
	}
	points := runFig9Cells(jobs, 3*sim.Millisecond, seed)
	out := ""
	for _, p := range points {
		if p.Thr == 0 {
			t.Fatal("fig9 cell produced zero throughput; digest is vacuous")
		}
		out += fpfS("%d:%.6f:%d:%d;", p.Cores, p.Thr, int64(p.Avg), int64(p.P99))
	}
	return out
}

// TestFig9CellsWorkerMatrix: fig9's cells must produce identical points
// for any worker count.
func TestFig9CellsWorkerMatrix(t *testing.T) {
	want := fig9SliceDigest(t, 1, 42)
	for _, w := range []int{2, 4, 8} {
		if got := fig9SliceDigest(t, w, 42); got != want {
			t.Fatalf("workers=%d points %q != workers=1 points %q", w, got, want)
		}
	}
}
