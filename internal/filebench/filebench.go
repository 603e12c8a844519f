// Package filebench reimplements the two Filebench personalities the
// paper evaluates (§6.3, Table 1):
//
//   - Fileserver: create, write (whole file), append, read (whole file),
//     stat, delete over a file set — write-heavy (R:W = 1:2).
//   - Webserver: whole-file reads from a file set plus an append to a
//     single shared log — read-heavy (R:W = 10:1) with high contention on
//     the log's inode.
package filebench

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Personality selects the workload.
type Personality string

// The implemented personalities.
const (
	Fileserver Personality = "fileserver"
	Webserver  Personality = "webserver"
)

// Config parameterizes a run.
type Config struct {
	Personality Personality
	Cores       int
	Uthreads    int // default Cores
	// Files is the file-set size. Default 64.
	Files   int
	Warmup  sim.Duration
	Measure sim.Duration
	Seed    uint64
}

// fileSize is the personality's whole-file size: fileserver writes and
// reads whole files of this size (Table 1: ~1 MB); webserver reads this
// much per op (256 KB).
func (p Personality) fileSize() int {
	if p == Webserver {
		return 256 << 10
	}
	return 1 << 20
}

// appendSize is every append's size: fileserver 1040KB-1MB delta appends
// (16 KB here per Table 1's webserver log append; fileserver appends
// 16 KB too).
const appendSize = 16 << 10

func (c Config) withDefaults() Config {
	if c.Uthreads == 0 {
		c.Uthreads = c.Cores
	}
	if c.Files == 0 {
		c.Files = 64
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 30 * sim.Millisecond
	}
	return c
}

// Result summarizes a run. Ops counts whole personality iterations.
type Result struct {
	Ops  int64
	Lat  stats.Recorder
	Span sim.Duration
}

// mustOp panics on a workload I/O error: the personality loops operate
// on files the generator itself created, so failures mean corrupted
// simulation state, not a recoverable condition.
func mustOp(op string, err error) {
	if err != nil {
		panic("filebench: " + op + ": " + err.Error())
	}
}

// Run executes the personality; same contract as fxmark.Run.
func Run(eng *sim.Engine, rt *caladan.Runtime, fs fsapi.FileSystem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Span: cfg.Measure}
	g := rng.New(cfg.Seed ^ 0xf11e)

	if err := fs.Mkdir(nil, "/fb"); err != nil && err != nova.ErrExist {
		return nil, err
	}
	// Pre-populate the file set.
	files := make([]*nova.File, cfg.Files)
	// One zero source and one read sink serve every uthread. The source,
	// a window on nova's process-wide zero source, is the payload of every
	// store (prefill, whole-file writes, appends); only filesystems copy
	// from it. The sink is write-only scratch: no code inspects what a
	// read returned. All uthreads run on this engine's goroutine, and the
	// sink never doubles as a source.
	fileSize := cfg.Personality.fileSize()
	zero := nova.Zeros(max(fileSize, appendSize))
	sink := make([]byte, fileSize)
	wbuf, abuf := zero[:fileSize], zero[:appendSize]
	for i := range files {
		f, err := fs.Create(nil, fmt.Sprintf("/fb/f%04d", i))
		if err != nil {
			return nil, err
		}
		if _, err := fs.WriteAt(nil, f, 0, wbuf); err != nil {
			f.Close()
			return nil, err
		}
		files[i] = f
	}
	var logFile *nova.File
	if cfg.Personality == Webserver {
		f, err := fs.Create(nil, "/fb/weblog")
		if err != nil {
			return nil, err
		}
		logFile = f
	}

	start := eng.Now()
	warmEnd := start + sim.Time(cfg.Warmup)
	end := warmEnd + sim.Time(cfg.Measure)

	for i := 0; i < cfg.Uthreads; i++ {
		i := i
		wg := g.Fork(uint64(i))
		rt.Spawn(i%cfg.Cores, fmt.Sprintf("fb-%d", i), func(task *caladan.Task) {
			seq := 0
			for task.Now() < end {
				opStart := task.Now()
				switch cfg.Personality {
				case Fileserver:
					// create+write / append / read / stat / delete.
					name := fmt.Sprintf("/fb/w%d-%d", i, seq)
					seq++
					nf, err := fs.Create(task, name)
					if err != nil {
						continue
					}
					_, err = fs.WriteAt(task, nf, 0, wbuf)
					mustOp("write", err)
					_, err = fs.Append(task, nf, abuf)
					mustOp("append", err)
					_, err = fs.ReadAt(task, nf, 0, sink)
					mustOp("read", err)
					_, err = fs.Stat(task, name)
					mustOp("stat", err)
					nf.Close()
					mustOp("unlink", fs.Unlink(task, name))
				case Webserver:
					// 10 reads : 1 log append (Table 1 R/W ratio).
					for k := 0; k < 10; k++ {
						f := files[wg.Intn(len(files))]
						_, err := fs.ReadAt(task, f, 0, sink)
						mustOp("read", err)
					}
					_, err := fs.Append(task, logFile, abuf)
					mustOp("append", err)
					if logFile.Size() > 64<<20 {
						mustOp("truncate", fs.Truncate(task, logFile, 0))
					}
				}
				if task.Now() > warmEnd && opStart >= warmEnd {
					res.Ops++
					res.Lat.Add(sim.Duration(task.Now() - opStart))
				}
			}
		})
	}
	eng.RunUntil(end)
	return res, nil
}
