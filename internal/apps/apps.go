// Package apps models the eight real-world applications of §6.3 / Table 1.
// Each application is a loop of (read input file, compute, write output
// file) with the paper's per-operation read/write sizes and a compute
// budget calibrated to realistic per-byte processing rates:
//
//	Snappy       decompress ~1 GB/s over ~2.8 MB touched  -> ~2.8 ms/op
//	JPGDecoder   ~160 MB/s of RGB output over 6.3 MB      -> ~40 ms/op
//	             (a naive scalar decoder; writes rarely overlap, so the
//	             baseline's memcpy runs undegraded and EasyIO gains little)
//	AES          software AES ~70 MB/s over 64+64 KB      -> ~1.8 ms/op
//	Grep         regex scan ~1 GB/s over 2 MB             -> ~2 ms/op
//	KNN          k-d tree lookups over a 1 MB sample batch-> ~1.5 ms/op
//	BFS          graph build + traversal over 1 MB        -> ~1.2 ms/op
//
// Fileserver and Webserver live in package filebench; the table here
// reexposes them so Figure 10 can sweep all eight uniformly.
//
// The functional kernels in funcs.go run real transforms (codec, graph,
// regexp) on the bytes the filesystem returns; only examples/analytics
// calls them. Figure 10 charges the calibrated virtual time instead,
// since wall-clock host compute must not perturb the virtual clock.
package apps

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/filebench"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Spec describes one application's per-operation profile (Table 1).
type Spec struct {
	Name      string
	ReadSize  int          // bytes read per op
	WriteSize int          // bytes written per op (0 = read-only)
	Compute   sim.Duration // CPU work per op between read and write
}

// The §6.3 applications (Table 1 sizes).
var (
	Snappy     = Spec{Name: "Snappy", ReadSize: 910 << 10, WriteSize: 1900 << 10, Compute: 2800 * sim.Microsecond}
	JPGDecoder = Spec{Name: "JPGDecoder", ReadSize: 343 << 10, WriteSize: 6300 << 10, Compute: 40 * sim.Millisecond}
	AES        = Spec{Name: "AES", ReadSize: 64 << 10, WriteSize: 64 << 10, Compute: 1800 * sim.Microsecond}
	Grep       = Spec{Name: "Grep", ReadSize: 2 << 20, WriteSize: 0, Compute: 2 * sim.Millisecond}
	KNN        = Spec{Name: "KNN", ReadSize: 1 << 20, WriteSize: 0, Compute: 1500 * sim.Microsecond}
	BFS        = Spec{Name: "BFS", ReadSize: 1 << 20, WriteSize: 0, Compute: 1200 * sim.Microsecond}
)

// Specs returns the six loop-style applications in Figure 10 order.
func Specs() []Spec {
	return []Spec{Snappy, JPGDecoder, AES, Grep, KNN, BFS}
}

// Config parameterizes a run.
type Config struct {
	Spec     Spec
	Cores    int
	Uthreads int // default Cores (2x cores for EasyIO per §6.2)
	Warmup   sim.Duration
	Measure  sim.Duration
	Seed     uint64
}

func (c Config) withDefaults() Config {
	if c.Uthreads == 0 {
		c.Uthreads = c.Cores
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 100 * sim.Millisecond
	}
	return c
}

// Result summarizes a run.
type Result struct {
	Ops  int64
	Lat  stats.Recorder
	Span sim.Duration
}

// Throughput returns application operations per second.
func (r *Result) Throughput() float64 { return stats.Throughput(int(r.Ops), r.Span) }

// Run executes the application loop on fs (same contract as fxmark.Run).
func Run(eng *sim.Engine, rt *caladan.Runtime, fs fsapi.FileSystem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Span: cfg.Measure}
	spec := cfg.Spec

	// Per-uthread input file (pre-built, like the paper's pre-built
	// compressed/sample/graph files) and output file.
	inputs := make([]*nova.File, cfg.Uthreads)
	outputs := make([]*nova.File, cfg.Uthreads)
	// One zero source and one read sink serve every uthread. The source,
	// a window on nova's process-wide zero source, is the payload of every
	// store (input prefill and output writes); only filesystems copy from
	// it. The sink is write-only scratch: no code inspects what a read
	// returned. All uthreads run on this engine's goroutine, and the sink
	// never doubles as a source.
	zero := nova.Zeros(max(spec.ReadSize, spec.WriteSize))
	sink := make([]byte, spec.ReadSize)
	for i := range inputs {
		in, err := fs.Create(nil, fmt.Sprintf("/app-in-%d", i))
		if err != nil {
			return nil, err
		}
		if _, err := fs.WriteAt(nil, in, 0, zero[:spec.ReadSize]); err != nil {
			in.Close()
			return nil, err
		}
		inputs[i] = in
		if spec.WriteSize > 0 {
			out, err := fs.Create(nil, fmt.Sprintf("/app-out-%d", i))
			if err != nil {
				return nil, err
			}
			outputs[i] = out
		}
	}

	start := eng.Now()
	warmEnd := start + sim.Time(cfg.Warmup)
	end := warmEnd + sim.Time(cfg.Measure)

	for i := 0; i < cfg.Uthreads; i++ {
		i := i
		rt.Spawn(i%cfg.Cores, spec.Name+fmt.Sprint(i), func(task *caladan.Task) {
			for task.Now() < end {
				opStart := task.Now()
				if _, err := fs.ReadAt(task, inputs[i], 0, sink); err != nil {
					panic("apps: read: " + err.Error())
				}
				task.Compute(spec.Compute)
				if spec.WriteSize > 0 {
					if _, err := fs.WriteAt(task, outputs[i], 0, zero[:spec.WriteSize]); err != nil {
						panic("apps: write: " + err.Error())
					}
				}
				// Count by completion time: ops are long relative to the
				// window (JPGDecoder ~12 ms), so gating on start time
				// would discard most of the window.
				if task.Now() > warmEnd {
					res.Ops++
					res.Lat.Add(sim.Duration(task.Now() - opStart))
				}
			}
		})
	}
	eng.RunUntil(end)
	return res, nil
}

// RunFilebench adapts the two Filebench personalities to the same result
// shape so Figure 10 sweeps all eight applications uniformly.
func RunFilebench(eng *sim.Engine, rt *caladan.Runtime, fs fsapi.FileSystem, p filebench.Personality, cores, uthreads int, seed uint64) (*Result, error) {
	fres, err := filebench.Run(eng, rt, fs, filebench.Config{
		Personality: p,
		Cores:       cores,
		Uthreads:    uthreads,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Ops: fres.Ops, Lat: fres.Lat, Span: fres.Span}, nil
}
