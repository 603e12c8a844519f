// Package crashmonkey is a black-box crash-consistency harness in the
// spirit of CrashMonkey [OSDI '18], used for Table 2 (§6.5): it records
// the persistent store stream of a workload running on EasyIO, generates
// bounded crash states (every fence-epoch prefix plus store-reordering
// subsets inside the crash epoch), remounts each image and checks that
// the recovered filesystem state is exactly one of the workload's
// operation-boundary oracle states — i.e. every operation is atomic and
// no torn or resurrected data survives, including the orderless window
// where metadata commits before the data DMA lands.
package crashmonkey

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// Op is one workload step executed inside a uthread. It must be complete
// (data durable) when it returns — EasyIO's write path guarantees this.
type Op func(t *caladan.Task, fs fsapi.FileSystem) error

// Workload is a crash-consistency test case.
type Workload struct {
	Name        string
	Description string
	// Setup builds the pre-crash baseline (untracked).
	Setup func(fs fsapi.FileSystem) error
	// Ops are the tracked operations whose crash states are explored.
	Ops []Op
}

// Report is the Table 2 row for one workload.
type Report struct {
	Name        string
	CrashPoints int
	Passed      int
	Failures    []string
}

// Failed reports the number of failing crash states.
func (r *Report) Failed() int { return r.CrashPoints - r.Passed }

// state is a canonical serialization of the logical filesystem contents.
type state string

// capture walks the filesystem and serializes (path, kind, nlink, size,
// content) for every reachable node.
func capture(fs *core.FS) state {
	var lines []string
	var walk func(dir string)
	walk = func(dir string) {
		names, err := fs.Readdir(nil, dir)
		if err != nil {
			lines = append(lines, fmt.Sprintf("ERR %s %v", dir, err))
			return
		}
		for _, name := range names {
			p := dir + name
			st, err := fs.Stat(nil, p)
			if err != nil {
				lines = append(lines, fmt.Sprintf("ERR %s %v", p, err))
				continue
			}
			if st.Kind == nova.KindDir {
				lines = append(lines, fmt.Sprintf("D %s", p))
				walk(p + "/")
				continue
			}
			f, err := fs.Open(nil, p)
			if err != nil {
				lines = append(lines, fmt.Sprintf("ERR %s %v", p, err))
				continue
			}
			buf := make([]byte, st.Size)
			if _, err := fs.FS.ReadAt(nil, f, 0, buf); err != nil {
				f.Close()
				lines = append(lines, fmt.Sprintf("ERR %s read %v", p, err))
				continue
			}
			f.Close()
			lines = append(lines, fileLine(p, st, buf))
		}
	}
	walk("/")
	sort.Strings(lines)
	return state(strings.Join(lines, "\n"))
}

// fileLine is capture's line for a regular file, the bytes of
// fmt.Sprintf("F %s nlink=%d size=%d %x", path, st.Nlink, st.Size, data)
// built without fmt: Table 2 formats every file of every crash state.
func fileLine(path string, st nova.Stat, data []byte) string {
	b := make([]byte, 0, len(path)+48+2*len(data))
	b = append(append(b, "F "...), path...)
	b = strconv.AppendUint(append(b, " nlink="...), uint64(st.Nlink), 10)
	b = strconv.AppendInt(append(b, " size="...), st.Size, 10)
	b = hex.AppendEncode(append(b, ' '), data)
	return string(b)
}

// Config bounds the exploration.
type Config struct {
	// TargetPoints is the number of crash states to test (Table 2 uses
	// 1000 per workload).
	TargetPoints int
	// Seed drives subset sampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.TargetPoints == 0 {
		c.TargetPoints = 1000
	}
	return c
}

// Test runs the workload once, then explores crash states.
func Test(w Workload, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 64<<20)
	opts := core.Options{Nova: nova.Options{NumInodes: 512}}
	if err := core.Format(dev, opts); err != nil {
		return nil, err
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		return nil, err
	}
	if w.Setup != nil {
		if err := w.Setup(fs); err != nil {
			return nil, err
		}
	}

	dev.EnableTracking()
	oracle := map[state]int{capture(fs): 0} // S0: pre-ops state

	rt := caladan.New(eng, caladan.Options{Cores: 1, Seed: cfg.Seed})
	var opErr error
	rt.Spawn(0, w.Name, func(task *caladan.Task) {
		for i, op := range w.Ops {
			if err := op(task, fs); err != nil {
				opErr = fmt.Errorf("op %d: %w", i, err)
				return
			}
			oracle[capture(fs)] = i + 1
		}
	})
	eng.Run()
	eng.Shutdown()
	if opErr != nil {
		return nil, opErr
	}

	// Crash-state generation.
	rep := &Report{Name: w.Name}
	g := rng.New(cfg.Seed ^ 0xc4a54)
	bounds := dev.EpochBounds()
	numEpochs := len(bounds) - 1

	check := func(applied []int, desc string) {
		rep.CrashPoints++
		img := dev.CrashImage(applied)
		fs2, err := core.Mount(img, core.Options{})
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: mount: %v", desc, err))
			return
		}
		got := capture(fs2)
		if _, ok := oracle[got]; !ok {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: state matches no oracle snapshot:\n%s", desc, got))
			return
		}
		rep.Passed++
	}

	// Pass 1: every epoch-boundary prefix.
	for e := 0; e <= numEpochs && rep.CrashPoints < cfg.TargetPoints; e++ {
		check(seqInts(bounds[e]), fmt.Sprintf("prefix-epoch-%d", e))
	}

	// Pass 2: sampled subsets inside each epoch (store reordering), until
	// the target is reached.
	for rep.CrashPoints < cfg.TargetPoints {
		e := g.Intn(numEpochs)
		lo, hi := bounds[e], bounds[e+1]
		if hi <= lo {
			// Empty epoch: a prefix we already tested; count it as an
			// additional sampled point to guarantee progress.
			check(seqInts(lo), fmt.Sprintf("prefix-epoch-%d-resample", e))
			continue
		}
		applied := seqInts(lo)
		for i := lo; i < hi; i++ {
			if g.Intn(2) == 0 {
				applied = append(applied, i)
			}
		}
		check(applied, fmt.Sprintf("epoch-%d-subset", e))
	}
	return rep, nil
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
