package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: 1<<subBits sub-buckets per
// power of two, so a bucket spans at most 1/1024 of its value and a
// reported percentile is within 0.1% of the exact sample. stats.Hist's
// buckets are 1.6% wide, coarser than a 1% regression bound on latency.
const subBits = 10

const subCount = 1 << subBits

// hist is a log-linear histogram of non-negative integers (nanoseconds
// here). Values below subCount get a bucket each; above, every power of
// two is split into subCount equal buckets.
type hist struct {
	counts []int64
	n      int64
}

// bucket maps a value to its bucket index. The mapping is monotonic and
// dense: [subCount, 2*subCount) maps to itself, each later power of two
// to the next subCount indexes.
func bucket(v int64) int {
	if v < subCount {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return shift<<subBits + int(v>>shift)
}

// bucketHigh is the largest value that maps to bucket i.
func bucketHigh(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := i>>subBits - 1
	m := int64(i - shift<<subBits)
	return (m+1)<<shift - 1
}

func (h *hist) add(v int64) {
	i := bucket(v)
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the upper edge of the bucket holding the sample of
// rank ceil(q*n), or 0 for an empty histogram.
func (h *hist) quantile(q float64) int64 {
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketHigh(i)
		}
	}
	return 0
}
