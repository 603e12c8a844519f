// Package easyio is the public API of the EasyIO reproduction: an
// asynchronous-I/O filesystem for simulated slow memory (EuroSys '24,
// "Exploring the Asynchrony of Slow Memory Filesystem with EasyIO").
//
// A System bundles the full simulated stack — slow-memory device, on-chip
// DMA engines, the NOVA-derived filesystem with EasyIO's orderless
// asynchronous data paths, and a Caladan-style uthread runtime — behind a
// deterministic virtual clock. Application code runs inside uthreads and
// uses the standard file API; writes are offloaded to the DMA engine and
// the uthread's core is harvested by other uthreads until the completion
// buffer advances.
//
// Quickstart:
//
//	sys, _ := easyio.New(easyio.Config{Cores: 4})
//	sys.Go(-1, "writer", func(t *easyio.Task) {
//		f, _ := sys.FS.Create(t, "/hello")
//		sys.FS.WriteAt(t, f, 0, []byte("hello, slow memory"))
//	})
//	sys.Run()
//	sys.Close()
//
// See the examples/ directory for complete programs, and internal/bench
// for the paper's full evaluation harness.
package easyio

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// Re-exported types: the complete surface a downstream user needs.
type (
	// Task is a uthread's handle for blocking primitives (Compute,
	// Yield, Park, Sleep) and is required by every filesystem call.
	Task = caladan.Task
	// UThread is a lightweight userspace thread.
	UThread = caladan.UThread
	// FS is the EasyIO filesystem (async data paths over the NOVA
	// substrate; namespace operations inherited, behind the same
	// level-2 gate).
	FS = core.FS
	// File is an open file handle.
	File = nova.File
	// Stat describes a file or directory.
	Stat = nova.Stat
	// Class partitions traffic: ClassL (latency) vs ClassB (bandwidth).
	Class = core.Class
	// Manager is the traffic-aware DMA channel manager.
	Manager = core.Manager
	// LApp is a latency-critical app registered with the manager.
	LApp = core.LApp
	// Time and Duration are virtual-clock units (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Traffic classes (§4.4 of the paper).
const (
	ClassL = core.ClassL
	ClassB = core.ClassB
)

// Virtual time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Filesystem errors (aliases of the substrate's).
var (
	ErrNotExist = nova.ErrNotExist
	ErrExist    = nova.ErrExist
	ErrIsDir    = nova.ErrIsDir
	ErrNotDir   = nova.ErrNotDir
	ErrNoSpace  = nova.ErrNoSpace
)

// Config parameterizes a simulated deployment on a 1 GB device with two
// 8-channel DMA engines (the paper's I/OAT testbed).
type Config struct {
	// Cores is the number of simulated physical cores (default 4).
	Cores int
	// Manager tunes the channel manager (§4.4).
	Manager core.ManagerOptions
	// TrackPersistence records the persist stream so Crash() can build
	// power-failure images.
	TrackPersistence bool
}

// seed drives the runtime's pseudo-randomness.
const seed = 1

// System is a full simulated deployment.
type System struct {
	FS      *FS
	Engine  *sim.Engine
	Device  *pmem.Device
	Runtime *caladan.Runtime
	Engines []*dma.Engine
	cfg     Config
}

// New formats a fresh device and mounts EasyIO on it.
func New(cfg Config) (*System, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 1<<30)
	if err := core.Format(dev, cfg.coreOptions()); err != nil {
		return nil, err
	}
	return attach(eng, dev, cfg)
}

func (c Config) coreOptions() core.Options { return core.Options{Manager: c.Manager} }

func attach(eng *sim.Engine, dev *pmem.Device, cfg Config) (*System, error) {
	fs, err := core.Mount(dev, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	if cfg.TrackPersistence {
		dev.EnableTracking()
	}
	return &System{
		FS:      fs,
		Engine:  eng,
		Device:  dev,
		Runtime: caladan.New(eng, caladan.Options{Cores: cfg.Cores, Seed: seed}),
		Engines: fs.Engines(),
		cfg:     cfg,
	}, nil
}

// Go spawns a uthread on the given core (-1 = round-robin).
func (s *System) Go(core int, name string, fn func(*Task)) *UThread {
	return s.Runtime.Spawn(core, name, fn)
}

// Run drives the virtual clock until no events remain.
func (s *System) Run() { s.Engine.Run() }

// RunFor drives the virtual clock for d of virtual time.
func (s *System) RunFor(d Duration) { s.Engine.RunFor(d) }

// Now returns the current virtual time.
func (s *System) Now() Time { return s.Engine.Now() }

// BusyFraction reports aggregate core utilization so far — the paper's
// CPU-consumption metric.
func (s *System) BusyFraction() float64 { return s.Runtime.BusyFraction() }

// Close terminates all uthread goroutines. The System is unusable after.
func (s *System) Close() { s.Engine.Shutdown() }

// Crash simulates a power failure at the current instant: it builds a
// device image containing exactly the durable state (everything fenced,
// plus nothing that was still in flight — in-flight DMA writes whose
// completion buffers had not advanced are discarded by recovery), then
// mounts a fresh System on it. Requires Config.TrackPersistence.
func (s *System) Crash() (*System, error) {
	recs := s.Device.Records()
	applied := make([]int, len(recs))
	for i := range applied {
		applied[i] = i
	}
	img := s.Device.CrashImage(applied)
	return attach(img.Engine(), img, s.cfg)
}
