package odinfs

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

func newOdin(t *testing.T, appCores, delegates int) (*sim.Engine, *FS, *caladan.Runtime) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	opts := nova.Options{NumInodes: 256}
	if err := nova.Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: appCores + delegates, DisableStealing: true})
	cores := make([]int, delegates)
	for i := range cores {
		cores[i] = appCores + i
	}
	fs.StartWorkers(rt, cores)
	return eng, fs, rt
}

func TestDelegationParallelizesLargeWrites(t *testing.T) {
	// A 2 MB write split across 8 delegates should beat one NOVA core,
	// despite per-writer degradation.
	measure := func(delegates int) sim.Duration {
		eng := sim.NewEngine()
		dev := pmem.New(eng, perfmodel.System(), 256<<20)
		opts := nova.Options{NumInodes: 64}
		nova.Mkfs(dev, opts)
		var fs interface {
			Create(*caladan.Task, string) (*nova.File, error)
			WriteAt(*caladan.Task, *nova.File, int64, []byte) (int, error)
		}
		rt := caladan.New(eng, caladan.Options{Cores: 1 + delegates, DisableStealing: true})
		if delegates > 0 {
			ofs, _ := New(dev, opts)
			cores := make([]int, delegates)
			for i := range cores {
				cores[i] = 1 + i
			}
			ofs.StartWorkers(rt, cores)
			fs = ofs
		} else {
			nfs, _ := nova.Mount(dev, nova.CPUMover{}, opts)
			fs = nfs
		}
		var dur sim.Duration
		rt.Spawn(0, "app", func(task *caladan.Task) {
			f, _ := fs.Create(task, "/f")
			start := task.Now()
			fs.WriteAt(task, f, 0, make([]byte, 2<<20))
			dur = sim.Duration(task.Now() - start)
		})
		eng.Run()
		eng.Shutdown()
		return dur
	}
	novaDur := measure(0)
	odinDur := measure(8)
	if odinDur >= novaDur {
		t.Fatalf("delegation (%v) not faster than single-core NOVA (%v) at 2MB", odinDur, novaDur)
	}
}

func TestDelegatesOccupyReservedCores(t *testing.T) {
	eng, fs, rt := newOdin(t, 1, 2)
	rt.Spawn(0, "app", func(task *caladan.Task) {
		f, _ := fs.Create(task, "/f")
		fs.WriteAt(task, f, 0, make([]byte, 1<<20))
	})
	eng.Run()
	eng.Shutdown()
	if rt.Core(1).BusyTime() == 0 && rt.Core(2).BusyTime() == 0 {
		t.Fatal("no delegate core did any work")
	}
}

// TestMoverNoAllocs pins Odinfs's steady-state data path at zero heap
// allocations per operation: chunk requests come from the FS's free
// list, each chunk counts down on the app uthread's arena callback, the
// delegates wake through their pre-bound callbacks, and their queues
// shift-pop. The warm-up writes more than the
// device holds, so every block has been allocated and demand-paged (a
// once-per-page cost) before the measured windows, and the Mallocs delta
// over 2N operations must equal the delta over N.
func TestMoverNoAllocs(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 16<<20)
	opts := nova.Options{NumInodes: 16}
	if err := nova.Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: 3, DisableStealing: true})
	fs.StartWorkers(rt, []int{1, 2})
	defer eng.Shutdown()

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
	run(5000)
	n := 200
	one, two := run(n), run(2*n)
	if two != one {
		t.Fatalf("operations allocate: %d mallocs over %d write+read pairs, %d over %d", one, n, two, 2*n)
	}
	if !bytes.Equal(rbuf, wbuf) {
		t.Fatal("read-back mismatch")
	}
}
