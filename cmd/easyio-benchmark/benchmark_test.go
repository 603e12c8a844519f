package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the binary must honour.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T, root string) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultLine renders o as the binary does and decodes its last line.
func resultLine(t *testing.T, name string, o *outcome, traced bool) jsonResult {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, name, 42, o, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return res
}

// TestWorkloads runs every workload with short windows, traced, and checks
// that the result lines carry exactly BENCHMARK.json's metrics with their
// units, that the output checks pass, and that the virtual results repeat
// for one seed and move with another.
func TestWorkloads(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, root)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	ws := workloads(root, true)
	if len(ws) != len(spec.Work) {
		t.Fatalf("binary has %d workloads, BENCHMARK.json %d", len(ws), len(spec.Work))
	}
	for i, w := range ws {
		if w.name != spec.Work[i].Name {
			t.Errorf("workload %d: binary %q, BENCHMARK.json %q", i, w.name, spec.Work[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			o, err := run(w, 42, 1, root, shortProbes, tr, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				t.Errorf("check failed: %s", p)
			}
			for _, mode := range []struct {
				traced bool
				want   []struct{ Name, Unit string }
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				res := resultLine(t, w.name, o, mode.traced)
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("trace=%v: correct %v attempted %d", mode.traced, res.Correct, res.Attempted)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json lists %d", mode.traced, len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not emitted", mode.traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
						t.Errorf("%s: value %v", m.Name, got.Value)
					case !mode.traced && got.Value == 0:
						t.Errorf("%s: end-to-end metric is zero", m.Name)
					}
					if !valid.MatchString(m.Name) {
						t.Errorf("metric name %q", m.Name)
					}
				}
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			var file struct{ TraceEvents []traceEvent }
			if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &file) != nil || len(file.TraceEvents) < 10 {
				t.Errorf("trace file unreadable or near empty (%d events, %v)", len(file.TraceEvents), err)
			}

			if w.name == "vet-cold" {
				return // no simulation: nothing to seed
			}
			again, err := run(w, 42, 1, root, shortProbes, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if !equalMetrics(again.results, o.results) {
				t.Errorf("seed 42 twice: %v then %v", o.results, again.results)
			}
			if w.name == "fxmark-sweep" {
				return // Figure 9's cells cost the same at every seeded offset
			}
			other, err := run(w, 7, 1, root, shortProbes, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if equalMetrics(other.results, o.results) {
				t.Errorf("seeds 42 and 7 gave identical results %v", o.results)
			}
		})
	}
}

func equalMetrics(a, b []metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHistPrecision checks the latency histogram's 0.1% resolution.
func TestHistPrecision(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1_000_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := q * 1_000_000
		if got := float64(h.quantile(q)); got < exact || got > exact*1.001 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, exact)
		}
	}
	for v := int64(0); v < 1<<22; v += 997 {
		if i := bucket(v); bucketHigh(i) < v || (i > 0 && bucketHigh(i-1) >= v) {
			t.Fatalf("value %d maps to bucket %d with upper edge %d", v, i, bucketHigh(i))
		}
	}
}
