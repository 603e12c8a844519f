package nova

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// newDMAFS builds a NOVA-DMA filesystem (sync DMA mover) plus a 1-core
// runtime.
func newDMAFS(t *testing.T) (*sim.Engine, *FS, *caladan.Runtime) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	opts := Options{NumInodes: 256}
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	engines := []*dma.Engine{
		dma.NewEngine(dev, 0, 8, CBRegionOff),
		dma.NewEngine(dev, 1, 8, CBRegionOff+8*dma.CBStride),
	}
	fs, err := Mount(dev, &SyncDMAMover{Engines: engines}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: 1})
	return eng, fs, rt
}

func TestSyncDMASmallIOFallsBackToMemcpy(t *testing.T) {
	// A 2 KB write must not touch any DMA channel (Listing 2 / §4.4
	// selective offload also applies to the sync baseline's minimum).
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 64<<20)
	opts := Options{NumInodes: 64}
	Mkfs(dev, opts)
	engine := dma.NewEngine(dev, 0, 8, CBRegionOff)
	fs, _ := Mount(dev, &SyncDMAMover{Engines: []*dma.Engine{engine}}, opts)
	rt := caladan.New(eng, caladan.Options{Cores: 1})
	rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := fs.Create(task, "/small")
		fs.WriteAt(task, f, 0, make([]byte, 2048))
	})
	eng.Run()
	eng.Shutdown()
	for i := 0; i < engine.NumChannels(); i++ {
		if engine.Channel(i).CompletedSN() != 0 {
			t.Fatalf("channel %d used for small I/O", i)
		}
	}
}

func TestSyncDMAWriteFasterThanCPUAt64K(t *testing.T) {
	// Fig 8: NOVA-DMA beats NOVA on large writes (9 GB/s channel vs
	// 6 GB/s single-core memcpy).
	measure := func(useDMA bool) sim.Duration {
		eng := sim.NewEngine()
		dev := pmem.New(eng, perfmodel.System(), 64<<20)
		opts := Options{NumInodes: 64}
		Mkfs(dev, opts)
		var mover DataMover = CPUMover{}
		if useDMA {
			mover = &SyncDMAMover{Engines: []*dma.Engine{dma.NewEngine(dev, 0, 8, CBRegionOff)}}
		}
		fs, _ := Mount(dev, mover, opts)
		rt := caladan.New(eng, caladan.Options{Cores: 1})
		var dur sim.Duration
		rt.Spawn(0, "w", func(task *caladan.Task) {
			f, _ := fs.Create(task, "/f")
			start := task.Now()
			fs.WriteAt(task, f, 0, make([]byte, 64<<10))
			dur = sim.Duration(task.Now() - start)
		})
		eng.Run()
		eng.Shutdown()
		return dur
	}
	cpu, dmaDur := measure(false), measure(true)
	if dmaDur >= cpu {
		t.Fatalf("sync DMA (%v) not faster than memcpy (%v) at 64K", dmaDur, cpu)
	}
}

// TestDMAMoverNoAllocs pins NOVA-DMA's steady-state data path at zero
// heap allocations per operation: the descriptors come from the
// uthread's OpArena pool, each completes through the arena's one
// countdown callback, and every descriptor is submitted as a
// one-element subslice.
func TestDMAMoverNoAllocs(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 16<<20)
	opts := Options{NumInodes: 16}
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	engines := []*dma.Engine{
		dma.NewEngine(dev, 0, 8, CBRegionOff),
		dma.NewEngine(dev, 1, 8, CBRegionOff+8*dma.CBStride),
	}
	fs, err := Mount(dev, &SyncDMAMover{Engines: engines}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: 1})
	defer eng.Shutdown()
	assertOpsAllocFree(t, eng, rt, fs)
}

// assertOpsAllocFree runs a uthread doing 64 KB writes and reads over a
// fixed 1 MB range of one file, then requires the Mallocs delta over 2N
// operations to equal the delta over N: nothing on the operation path
// may allocate. The warm-up writes more than the device holds, so the
// rotating block allocator has handed out, and the device demand-paged,
// every block before the measured windows: first-touch paging is a
// once-per-page cost, not per-operation churn.
func assertOpsAllocFree(t *testing.T, eng *sim.Engine, rt *caladan.Runtime, fs *FS) {
	t.Helper()
	wbuf := make([]byte, 64<<10)
	rng.New(3).Bytes(wbuf)
	rbuf := make([]byte, len(wbuf))
	ops, target := 0, 0
	app := rt.Spawn(0, "app", func(task *caladan.Task) {
		f, err := fs.Create(task, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		for {
			for ops < target {
				off := int64(ops%16) * int64(len(wbuf))
				if _, err := fs.WriteAt(task, f, off, wbuf); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.ReadAt(task, f, off, rbuf); err != nil {
					t.Error(err)
					return
				}
				ops++
			}
			task.Park()
		}
	})
	run := func(n int) uint64 {
		target += n
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		app.Wake()
		eng.Run()
		runtime.ReadMemStats(&after)
		if ops != target {
			t.Fatalf("ran %d operations, want %d", ops, target)
		}
		return after.Mallocs - before.Mallocs
	}
	// Let the app reach its first Park before the first window: a Wake
	// sent to a uthread that has not parked yet stays pending, and its
	// first synchronous operation would return with its data in flight.
	eng.Run()
	run(5000) // warm-up: arenas, pools and free lists reach high water
	n := 200
	one, two := run(n), run(2*n)
	if two != one {
		t.Fatalf("operations allocate: %d mallocs over %d write+read pairs, %d over %d", one, n, two, 2*n)
	}
	if !bytes.Equal(rbuf, wbuf) {
		t.Fatal("read-back mismatch")
	}
}
