package bench

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

// TestRunJobsCoversAllIndices: every index runs exactly once, for worker
// counts below, at, and above the job count.
func TestRunJobsCoversAllIndices(t *testing.T) {
	defer func(w int) { SimWorkers = w }(SimWorkers)
	for _, workers := range []int{1, 2, 7, 64} {
		SimWorkers = workers
		const n = 23
		var counts [n]atomic.Int64
		runJobs(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunJobsPanicLowestIndex: when several jobs panic, the re-raised
// panic is the lowest index's regardless of worker count.
func TestRunJobsPanicLowestIndex(t *testing.T) {
	defer func(w int) { SimWorkers = w }(SimWorkers)
	for _, workers := range []int{1, 8} {
		SimWorkers = workers
		got := func() (r any) {
			defer func() { r = recover() }()
			runJobs(16, func(i int) {
				if i%2 == 1 {
					panic(fmt.Sprintf("job %d", i))
				}
			})
			return nil
		}()
		if got != "job 1" {
			t.Fatalf("workers=%d: recovered %v, want %q", workers, got, "job 1")
		}
	}
}

// TestRunJobsNested: nested fan-out must complete (the helper budget is
// try-acquired, so inner calls fall back to the calling goroutine rather
// than deadlocking).
func TestRunJobsNested(t *testing.T) {
	defer func(w int) { SimWorkers = w }(SimWorkers)
	SimWorkers = 4
	var total atomic.Int64
	runJobs(6, func(i int) {
		runJobs(6, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 36 {
		t.Fatalf("nested jobs ran %d times, want 36", got)
	}
}

// TestParallelOutputByteIdentical runs a cross-section of the drivers
// (raw-device sweeps, fxmark panel, crash table) sequentially and with a
// large worker fan-out; the printed output must match byte for byte.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full drivers twice")
	}
	render := func(workers int) []byte {
		defer func(w int) { SimWorkers = w }(SimWorkers)
		SimWorkers = workers
		var buf bytes.Buffer
		Fig2(&buf, sim.Millisecond)
		Fig3(&buf, sim.Millisecond)
		Fig4(&buf, sim.Millisecond)
		Fig8(&buf)
		Table2(&buf, 40)
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output diverges from sequential:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
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
