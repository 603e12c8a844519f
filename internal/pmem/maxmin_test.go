package pmem

import (
	"math"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// maxminRef is capLimits over plain slices and without the uncontended
// shortcut: the weighted max-min rounds, writing the allocation into
// alloc. It is the oracle the in-place path must match bit for bit.
func maxminRef(limit, weight, alloc []float64, sat []bool, cap float64) {
	n := len(limit)
	remaining := cap
	for {
		var wsum float64
		for i := 0; i < n; i++ {
			if !sat[i] {
				wsum += weight[i]
			}
		}
		if wsum == 0 {
			return
		}
		progressed := false
		for i := 0; i < n; i++ {
			if sat[i] {
				continue
			}
			share := remaining * weight[i] / wsum
			if limit[i] <= share {
				alloc[i] = limit[i]
				remaining -= limit[i]
				sat[i] = true
				progressed = true
			}
		}
		if !progressed {
			for i := 0; i < n; i++ {
				if !sat[i] {
					alloc[i] = remaining * weight[i] / wsum
				}
			}
			return
		}
	}
}

// flowsOf builds the flows capLimits arbitrates: limit and weight pairs.
func flowsOf(limit, weight []float64) []*Flow {
	flows := make([]*Flow, len(limit))
	for i := range flows {
		flows[i] = &Flow{spec: FlowSpec{Weight: weight[i]}, limit: limit[i]}
	}
	return flows
}

// TestMaxminMatchesReference checks capLimits against maxminRef on seeded
// random inputs: 1 to 40 flows with rate-sized limits and positive
// weights, and caps drawn from four regimes — well below and well above
// total demand, and total demand within 1e-12 (relative) of the cap or
// of the shortcut's 1e-9 margin, on both sides of each. Whenever the
// limits, summed in flow order, fit under the margin, capLimits must take
// the shortcut and mark no flow saturated: that sum is the one the
// parent's max-min staged, so the shortcut's borderline cases stay its.
func TestMaxminMatchesReference(t *testing.T) {
	g := rng.New(20240426)
	borderline := [...]float64{-1e-12, -3e-13, 0, 3e-13, 1e-12}
	var fast, rounds int
	for trial := 0; trial < 40000; trial++ {
		n := 1 + g.Intn(40)
		limit := make([]float64, n)
		weight := make([]float64, n)
		var sum float64
		for i := range limit {
			switch g.Intn(4) {
			case 0:
				limit[i] = float64(1+g.Intn(8)) * 1e9 // repeated round values
			case 1:
				limit[i] = 1 + g.Float64()*1e6
			default:
				limit[i] = 1e8 + g.Float64()*1e10
			}
			weight[i] = 1
			if g.Intn(3) == 0 {
				weight[i] = 0.25 + g.Float64()*8
			}
			sum += limit[i]
		}
		var cap float64
		switch trial % 4 {
		case 0:
			cap = sum * (0.05 + 2*g.Float64())
		case 1:
			cap = sum * (1 + borderline[g.Intn(len(borderline))])
		case 2:
			cap = sum / (1 - 1e-9) * (1 + borderline[g.Intn(len(borderline))])
		default:
			cap = sum * (1 + 1e-9*g.Float64()*2)
		}
		flows := flowsOf(limit, weight)
		capLimits(flows, cap)
		want := make([]float64, n)
		maxminRef(limit, weight, want, make([]bool, n), cap)
		for i, f := range flows {
			if math.Float64bits(f.limit) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d, cap=%v, demand=%v): limit[%d] = %v, reference %v",
					trial, n, cap, sum, i, f.limit, want[i])
			}
		}
		if sum <= cap*(1-1e-9) {
			fast++
			for i, f := range flows {
				if f.sat {
					t.Fatalf("trial %d (n=%d, cap=%v, demand=%v): flow %d saturated in a round; the demand fits, so capLimits must take the shortcut",
						trial, n, cap, sum, i)
				}
			}
		} else {
			rounds++
		}
	}
	// Both paths must be exercised, or the comparison proves nothing.
	if fast < 5000 || rounds < 5000 {
		t.Fatalf("regimes unbalanced: %d uncontended, %d contended trials", fast, rounds)
	}
}
