package bench

import (
	"runtime"
	"testing"

	"github.com/easyio-sim/easyio/internal/sim"
)

// TestFig9ScalingSpeedup asserts the job pool's payoff: fig9's cells
// must run at least 2x faster at -workers 4 than at 1,
// with identical points (MeasureFig9Scaling panics on any divergence).
// The assertion needs real parallelism, so it is skipped on hosts with
// fewer than 4 CPUs — there the rows still get measured and recorded in
// BENCH_sim.json, they just sit near 1x.
func TestFig9ScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scaling measurement; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; the 4-worker speedup floor needs at least 4", runtime.NumCPU())
	}
	rows, speedup := MeasureFig9Scaling(4*sim.Millisecond, 42)
	for _, r := range rows {
		t.Logf("workers=%d wall=%.1fms", r.Workers, r.WallMS)
	}
	if speedup < 2 {
		t.Fatalf("fig9 speedup at workers=4 is %.2fx, want >= 2x", speedup)
	}
}
