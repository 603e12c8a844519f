// Package stats provides measurement utilities used by the benchmark
// harness: latency recorders with percentiles, time series, and plain-text
// table rendering matching the rows/series the paper reports.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"github.com/easyio-sim/easyio/internal/sim"
)

// Recorder accumulates duration samples and answers summary queries.
// The zero value is ready to use.
type Recorder struct {
	samples []sim.Duration
	sorted  bool
	sum     int64
	max     sim.Duration
}

// Add records one sample.
func (r *Recorder) Add(d sim.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
	r.sum += int64(d)
	if d > r.max {
		r.max = d
	}
}

// Count reports the number of samples recorded.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the average sample, or 0 with no samples.
func (r *Recorder) Mean() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return sim.Duration(r.sum / int64(len(r.samples)))
}

// Max returns the largest sample.
func (r *Recorder) Max() sim.Duration { return r.max }

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples, or 0 with no samples.
func (r *Recorder) Percentile(p float64) sim.Duration {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	if p <= 0 {
		return r.samples[0]
	}
	rank := int(p/100*float64(n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return r.samples[rank]
}

// P50, P99 are convenience accessors.
func (r *Recorder) P50() sim.Duration { return r.Percentile(50) }
func (r *Recorder) P99() sim.Duration { return r.Percentile(99) }

// Point is one (time, value) observation in a Series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends an observation.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Throughput derives operations/second from a count over a virtual span.
func Throughput(ops int, span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(ops) / span.Seconds()
}

// GBps converts bytes moved over a virtual span to GB/s (decimal GB).
func GBps(bytes int64, span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / span.Seconds() / 1e9
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
