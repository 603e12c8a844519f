// Package fxmark reimplements the FxMark microbenchmark generators
// [USENIX ATC '16] the paper evaluates with (§6.1-6.2): data-path
// operations at tunable I/O sizes, worker counts and sharing levels.
//
// Implemented workloads:
//
//	DWAL - each worker appends to a private file (write, low sharing)
//	DRBL - each worker reads blocks of a private file (read, low sharing)
//	DWOM - all workers overwrite blocks of one shared file (medium sharing)
//	DRBM - all workers read blocks of one shared file (medium sharing)
package fxmark

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Workload selects the FxMark personality.
type Workload string

// The implemented FxMark personalities.
const (
	DWAL Workload = "DWAL"
	DRBL Workload = "DRBL"
	DWOM Workload = "DWOM"
	DRBM Workload = "DRBM"
)

// Config parameterizes a run.
type Config struct {
	Workload Workload
	// Cores is the number of worker cores ([0, Cores) of the runtime).
	Cores int
	// Uthreads is the number of worker uthreads (default Cores; the
	// paper uses 2x cores for EasyIO).
	Uthreads int
	// IOSize is the per-operation transfer size.
	IOSize int
	// FileSize is the working-set size per file (reads/overwrites).
	// Default 4 MB.
	FileSize int64
	// AppendCap bounds DWAL file growth; the file is truncated (untimed)
	// when it exceeds the cap. Default 16 MB.
	AppendCap int64
	// Warmup and Measure bound the run. Defaults 2 ms / 20 ms.
	Warmup, Measure sim.Duration
	// Seed drives offset choice.
	Seed uint64
	// PostOp, if set, runs after each operation (used by latency probes
	// and the real-world app wrappers).
	PostOp func(t *caladan.Task)
}

func (c Config) withDefaults() Config {
	if c.Uthreads == 0 {
		c.Uthreads = c.Cores
	}
	if c.FileSize == 0 {
		c.FileSize = 4 << 20
	}
	if c.AppendCap == 0 {
		c.AppendCap = 16 << 20
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 20 * sim.Millisecond
	}
	return c
}

// Result summarizes a run.
type Result struct {
	Ops   int64
	Bytes int64
	Lat   stats.Recorder
	Span  sim.Duration
}

// Throughput returns operations per second over the measure window.
func (r *Result) Throughput() float64 { return stats.Throughput(int(r.Ops), r.Span) }

// Bandwidth returns GB/s moved over the measure window.
func (r *Result) Bandwidth() float64 { return stats.GBps(r.Bytes, r.Span) }

// Run executes the workload on fs over rt's cores [0, cfg.Cores) and
// blocks (in wall time) until the virtual run completes. The caller owns
// the engine and must have created rt; Run spawns the workers, drives the
// engine to the end of the measure window, and returns the result.
// mustOp panics on a workload I/O error. The generator operates on files
// it pre-created, so every op is infallible by construction; if one ever
// fails, the counters and latencies from that point on would be fiction,
// and dying loudly beats reporting them.
func mustOp(op string, err error) {
	if err != nil {
		panic("fxmark: " + op + ": " + err.Error())
	}
}

func Run(eng *sim.Engine, rt *caladan.Runtime, fs fsapi.FileSystem, cfg Config) (*Result, error) {
	p, err := Start(eng, rt, fs, cfg)
	if err != nil {
		return nil, err
	}
	eng.RunUntil(p.End())
	return p.Result(), nil
}

// Pending is a started-but-not-driven run: Start has done the untimed
// setup and spawned the workers; the result is valid once the caller has
// advanced the engine to at least End (RunUntil semantics).
type Pending struct {
	res *Result
	end sim.Time
}

// End is the virtual time the measure window closes.
func (p *Pending) End() sim.Time { return p.end }

// Result returns the collector; its counters are final only after the
// engine has run to End.
func (p *Pending) Result() *Result { return p.res }

// Start performs the untimed setup (file creation, prefill) and spawns
// the worker uthreads, but does not drive the engine — the caller owns
// virtual time. Run wraps it for the common single-engine case.
func Start(eng *sim.Engine, rt *caladan.Runtime, fs fsapi.FileSystem, cfg Config) (*Pending, error) {
	cfg = cfg.withDefaults()
	res := &Result{Span: cfg.Measure}
	g := rng.New(cfg.Seed ^ 0xf8a1)
	// Functional setup (untimed): pre-create the files.
	shared := cfg.Workload == DWOM || cfg.Workload == DRBM
	var zero []byte // one zero chunk serves every prefilled file
	if shared || cfg.Workload == DRBL {
		zero = make([]byte, prefillChunk)
	}
	var sharedFile *nova.File
	if shared {
		f, err := fs.Create(nil, "/fxmark-shared")
		if err != nil {
			return nil, err
		}
		if err := prefill(fs, f, cfg.FileSize, zero); err != nil {
			f.Close()
			return nil, err
		}
		sharedFile = f
	}
	files := make([]*nova.File, cfg.Uthreads)
	if !shared {
		for i := range files {
			f, err := fs.Create(nil, fmt.Sprintf("/fxmark-%d", i))
			if err != nil {
				return nil, err
			}
			if cfg.Workload == DRBL {
				if err := prefill(fs, f, cfg.FileSize, zero); err != nil {
					f.Close()
					return nil, err
				}
			}
			files[i] = f
		}
	}

	start := eng.Now()
	warmEnd := start + sim.Time(cfg.Warmup)
	end := warmEnd + sim.Time(cfg.Measure)

	for i := 0; i < cfg.Uthreads; i++ {
		i := i
		wg := g.Fork(uint64(i))
		rt.Spawn(i%cfg.Cores, fmt.Sprintf("fx-%d", i), func(task *caladan.Task) {
			f := sharedFile
			if !shared {
				f = files[i]
			}
			appendPos := int64(0)
			myBuf := make([]byte, cfg.IOSize)
			for task.Now() < end {
				opStart := task.Now()
				switch cfg.Workload {
				case DWAL:
					_, err := fs.Append(task, f, myBuf)
					mustOp("append", err)
					appendPos += int64(cfg.IOSize)
					if appendPos > cfg.AppendCap {
						mustOp("truncate", fs.Truncate(task, f, 0))
						appendPos = 0
						continue // maintenance op: not timed
					}
				case DRBL, DRBM:
					off := alignedOff(wg, cfg.FileSize, cfg.IOSize)
					_, err := fs.ReadAt(task, f, off, myBuf)
					mustOp("read", err)
				case DWOM:
					off := alignedOff(wg, cfg.FileSize, cfg.IOSize)
					_, err := fs.WriteAt(task, f, off, myBuf)
					mustOp("write", err)
				default:
					panic("fxmark: unknown workload " + string(cfg.Workload))
				}
				if task.Now() > warmEnd && opStart >= warmEnd {
					res.Ops++
					res.Bytes += int64(cfg.IOSize)
					res.Lat.Add(sim.Duration(task.Now() - opStart))
				}
				if cfg.PostOp != nil {
					cfg.PostOp(task)
				}
			}
		})
	}
	return &Pending{res: res, end: end}, nil
}

// prefillChunk is prefill's write size.
const prefillChunk = 1 << 20

// prefill functionally sizes a file (ephemeral-aware: metadata only) with
// writes of zero, a caller-owned all-zero buffer of prefillChunk bytes.
func prefill(fs fsapi.FileSystem, f *nova.File, size int64, zero []byte) error {
	for off := int64(0); off < size; off += prefillChunk {
		n := size - off
		if n > prefillChunk {
			n = prefillChunk
		}
		if _, err := fs.WriteAt(nil, f, off, zero[:n]); err != nil {
			return err
		}
	}
	return nil
}

func alignedOff(g *rng.Rand, fileSize int64, ioSize int) int64 {
	slots := fileSize / int64(ioSize)
	if slots <= 0 {
		return 0
	}
	return g.Int63n(slots) * int64(ioSize)
}
