package stats

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	if r.Count() != 0 || r.Mean() != 0 || r.Percentile(99) != 0 {
		t.Fatal("zero recorder not empty")
	}
	for _, v := range []sim.Duration{10, 20, 30, 40} {
		r.Add(v)
	}
	if r.Count() != 4 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Mean() != 25 {
		t.Fatalf("mean = %v", r.Mean())
	}
	if r.Max() != 40 {
		t.Fatalf("max = %v", r.Max())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var r Recorder
	for i := 1; i <= 100; i++ {
		r.Add(sim.Duration(i))
	}
	if got := r.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := r.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	var r Recorder
	r.Add(5)
	r.Add(1)
	_ = r.Percentile(50) // forces sort
	r.Add(3)             // must invalidate the sorted flag
	if got := r.Percentile(100); got != 5 {
		t.Fatalf("max percentile = %v, want 5", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("min percentile = %v, want 1", got)
	}
}

func TestPercentileMatchesSortProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		n := 1 + g.Intn(200)
		var r Recorder
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = g.Int63n(1e6)
			r.Add(sim.Duration(vals[i]))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{1, 25, 50, 75, 99, 100} {
			rank := int(p/100*float64(n)+0.5) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= n {
				rank = n - 1
			}
			if int64(r.Percentile(p)) != vals[rank] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0, 1.5)
	s.Add(10, 3.5)
	s.Add(20, 2.0)
	want := []Point{{0, 1.5}, {10, 3.5}, {20, 2.0}}
	if !reflect.DeepEqual(s.Points, want) {
		t.Fatalf("points = %v, want %v", s.Points, want)
	}
}

func TestThroughputAndGBps(t *testing.T) {
	if got := Throughput(1000, sim.Second); got != 1000 {
		t.Fatalf("throughput = %v", got)
	}
	if got := Throughput(5, 0); got != 0 {
		t.Fatalf("throughput at zero span = %v", got)
	}
	if got := GBps(2e9, sim.Second); got != 2.0 {
		t.Fatalf("GBps = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("fs", "lat(us)")
	tb.AddRow("NOVA", 12.345)
	tb.AddRow("EasyIO", 7.0)
	out := tb.String()
	if !strings.Contains(out, "NOVA") || !strings.Contains(out, "12.35") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}
