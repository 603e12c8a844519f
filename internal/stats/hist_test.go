package stats

import (
	"math"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// TestHistIndexRoundtrip proves every bucket's upper bound maps back to
// that bucket and that bucket boundaries are contiguous and monotonic.
func TestHistIndexRoundtrip(t *testing.T) {
	prev := sim.Duration(-1)
	for i := 0; i < histBuckets; i++ {
		u := histUpper(i)
		if u <= prev {
			t.Fatalf("bucket %d: upper %d not above previous %d", i, u, prev)
		}
		if got := histIndex(u); got != i {
			t.Fatalf("bucket %d: upper %d maps to bucket %d", i, u, got)
		}
		if next := u + 1; next > 0 {
			if got := histIndex(next); got != i+1 {
				t.Fatalf("bucket %d: upper+1 %d maps to bucket %d, want %d", i, next, got, i+1)
			}
		}
		prev = u
	}
	// The top bucket's upper bound is exactly the largest int64.
	if got := histUpper(histBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("top bucket upper = %d, want MaxInt64", got)
	}
}

// TestHistVsRecorder checks that Hist quantiles track Recorder's exact
// nearest-rank quantiles within the bucket resolution, never
// understating them.
func TestHistVsRecorder(t *testing.T) {
	g := rng.New(7)
	var h Hist
	var r Recorder
	for i := 0; i < 50_000; i++ {
		// Log-uniform samples spanning ns..ms, the latency range serving
		// runs produce.
		d := sim.Duration(math.Exp(g.Float64()*math.Log(5e6))) + sim.Duration(g.Intn(100))
		h.Add(d)
		r.Add(d)
	}
	if h.Count() != int64(r.Count()) {
		t.Fatalf("count %d vs %d", h.Count(), r.Count())
	}
	if h.Mean() != r.Mean() {
		t.Fatalf("mean %d vs %d (Hist mean is exact)", h.Mean(), r.Mean())
	}
	if h.Max() != r.Max() {
		t.Fatalf("max %d vs %d (Hist max is exact)", h.Max(), r.Max())
	}
	const relErr = 1.0 / (1 << histSubBits) // one sub-bucket
	for _, p := range []float64{10, 50, 90, 99, 99.9, 99.99} {
		exact := r.Percentile(p)
		got := h.Percentile(p)
		if got < exact {
			t.Errorf("p%.2f: hist %d understates exact %d", p, got, exact)
		}
		if float64(got-exact) > relErr*float64(exact)+1 {
			t.Errorf("p%.2f: hist %d vs exact %d exceeds %.1f%% resolution", p, got, exact, 100*relErr)
		}
	}
}

// TestHistNoAllocs pins the no-per-sample-allocation contract Add and
// Percentile rely on for million-request serving runs.
func TestHistNoAllocs(t *testing.T) {
	h := new(Hist)
	d := sim.Duration(1)
	if a := testing.AllocsPerRun(1000, func() {
		h.Add(d)
		d = d*7 + 13
	}); a != 0 {
		t.Fatalf("Hist.Add allocates %.1f times per sample", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		_ = h.P999()
	}); a != 0 {
		t.Fatalf("Hist.Percentile allocates %.1f times per call", a)
	}
}

// TestHistEdgeCases covers empty, single-sample and negative inputs.
func TestHistEdgeCases(t *testing.T) {
	var h Hist
	if h.Percentile(99) != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must answer zeros")
	}
	h.Add(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative sample must clamp to zero")
	}
	h.Reset()
	h.Add(42)
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("single sample p%.0f = %d, want 42", p, got)
		}
	}
}
