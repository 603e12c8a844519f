package core

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

type harness struct {
	eng *sim.Engine
	dev *pmem.Device
	fs  *FS
	rt  *caladan.Runtime
}

func newHarness(t *testing.T, cores int, opts Options) *harness {
	t.Helper()
	return newSizedHarness(t, cores, opts, 256<<20)
}

// newSizedHarness is newHarness on a device of devSize bytes.
func newSizedHarness(t *testing.T, cores int, opts Options, devSize int64) *harness {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), devSize)
	opts.Nova.NumInodes = 512
	if err := Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cores, Seed: 1})
	return &harness{eng: eng, dev: dev, fs: fs, rt: rt}
}

func (h *harness) run() {
	h.eng.Run()
	h.eng.Shutdown()
}

func TestAsyncWriteHarvestsCore(t *testing.T) {
	// One core, one big async write plus a compute uthread: the compute
	// work must interleave with the in-flight DMA window.
	h := newHarness(t, 1, Options{})
	var writeDone sim.Time
	iterBeforeWrite := 0
	iters := 0
	h.rt.Spawn(0, "writer", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.fs.WriteAt(task, f, 0, make([]byte, 1<<20)) // ~87us of DMA
		writeDone = task.Now()
		iterBeforeWrite = iters
	})
	h.rt.Spawn(0, "compute", func(task *caladan.Task) {
		for i := 0; i < 200; i++ {
			task.Compute(sim.Microsecond)
			iters++
			task.Yield()
		}
	})
	h.run()
	if writeDone == 0 {
		t.Fatal("write never completed")
	}
	if iterBeforeWrite < 20 {
		t.Fatalf("only %d compute iterations overlapped the write window (no harvesting)", iterBeforeWrite)
	}
}

func TestWriteAfterWriteGates(t *testing.T) {
	// Second write to the same file must not complete before the first
	// write's DMA lands (level-2 write-write conflict).
	h := newHarness(t, 2, Options{})
	var firstData, secondStartedMoving sim.Time
	f := make(chan struct{}, 1)
	_ = f
	var file *nova.File
	h.rt.Spawn(0, "w1", func(task *caladan.Task) {
		file, _ = h.fs.Create(task, "/f")
		h.fs.WriteAt(task, file, 0, make([]byte, 2<<20))
		firstData = task.Now()
	})
	h.rt.Spawn(1, "w2", func(task *caladan.Task) {
		task.Sleep(10 * sim.Microsecond) // let w1 commit + unlock first
		h.fs.WriteAt(task, file, 0, make([]byte, 8192))
		secondStartedMoving = task.Now()
	})
	h.run()
	if secondStartedMoving <= firstData {
		t.Fatalf("second write finished (%v) before first write's data landed (%v)", secondStartedMoving, firstData)
	}
}

func TestReadAfterWriteGates(t *testing.T) {
	h := newHarness(t, 2, Options{})
	var writeLanded, readDone sim.Time
	var file *nova.File
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		file, _ = h.fs.Create(task, "/f")
		h.fs.WriteAt(task, file, 0, make([]byte, 2<<20))
		writeLanded = task.Now()
	})
	h.rt.Spawn(1, "r", func(task *caladan.Task) {
		task.Sleep(10 * sim.Microsecond)
		buf := make([]byte, 4096)
		h.fs.ReadAt(task, file, 0, buf)
		readDone = task.Now()
	})
	h.run()
	if readDone <= writeLanded {
		t.Fatalf("read (%v) returned before the pending write landed (%v)", readDone, writeLanded)
	}
}

func TestWriteAfterReadDoesNotGate(t *testing.T) {
	// CoW: a later write need not wait for an in-flight read's data I/O.
	// The read holds the lock only briefly; the write then proceeds and
	// may finish while the read is still moving data.
	h := newHarness(t, 2, Options{})
	var readDone, writeDone sim.Time
	var file *nova.File
	h.rt.Spawn(0, "setup", func(task *caladan.Task) {
		file, _ = h.fs.Create(task, "/f")
		h.fs.WriteAt(task, file, 0, make([]byte, 4<<20))
	})
	h.eng.After(2*sim.Millisecond, func() {
		h.rt.Spawn(0, "r", func(task *caladan.Task) {
			buf := make([]byte, 4<<20) // long read (memcpy fallback likely)
			h.fs.ReadAt(task, file, 0, buf)
			readDone = task.Now()
		})
		h.rt.Spawn(1, "w", func(task *caladan.Task) {
			task.Sleep(5 * sim.Microsecond)
			h.fs.WriteAt(task, file, 0, make([]byte, 8192))
			writeDone = task.Now()
		})
	})
	h.run()
	if writeDone == 0 || readDone == 0 {
		t.Fatal("ops incomplete")
	}
	if writeDone >= readDone {
		t.Fatalf("write (%v) waited for the read (%v); reads must not block writes", writeDone, readDone)
	}
}

func TestSelectiveOffloadSmallWrites(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/small")
		for i := 0; i < 10; i++ {
			h.fs.WriteAt(task, f, int64(i*4096), make([]byte, 4096))
		}
	})
	h.run()
	for _, e := range h.fs.Engines() {
		for i := 0; i < e.NumChannels(); i++ {
			if e.Channel(i).CompletedSN() != 0 {
				t.Fatalf("4KB writes used DMA channel %d/%d", e.ID(), i)
			}
		}
	}
}

func TestLargeWritesUseLChannels(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/big")
		for i := 0; i < 8; i++ {
			h.fs.WriteAt(task, f, int64(i)<<16, make([]byte, 64<<10))
		}
	})
	h.run()
	used := 0
	for _, ref := range h.fs.Manager().LChannels() {
		if ref.Chan.CompletedSN() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("writes not spread over L channels: %d used", used)
	}
	if h.fs.Manager().BChannel().Chan.CompletedSN() != 0 {
		t.Fatal("L writes leaked onto the B channel")
	}
}

func TestClassBSplitsOnBChannel(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.rt.Spawn(0, "gc", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/bulk")
		h.fs.WriteAtClass(task, f, 0, make([]byte, 2<<20), ClassB)
	})
	h.run()
	b := h.fs.Manager().BChannel().Chan
	if b.CompletedSN() < 32 {
		t.Fatalf("2MB B write produced %d descriptors, want >= 32 (64KB split)", b.CompletedSN())
	}
	for _, ref := range h.fs.Manager().LChannels() {
		if ref.Chan.CompletedSN() != 0 {
			t.Fatal("B write leaked onto L channels")
		}
	}
}

func TestOrderlessRecoveryDiscardsUnfinishedWrite(t *testing.T) {
	// The crash window §4.2 exists for: metadata committed, data DMA not
	// landed. Recovery must discard the committed entry (SN not durable)
	// and expose the old contents.
	h := newHarness(t, 1, Options{})
	old := bytes.Repeat([]byte{'O'}, 256<<10)
	newData := bytes.Repeat([]byte{'N'}, 256<<10)
	var commitSeen bool
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.fs.WriteAt(task, f, 0, old)
		h.dev.EnableTracking()
		commitSeen = true
		h.fs.WriteAt(task, f, 0, newData) // 256KB DMA: ~21us in flight
	})
	// Stop the world mid-flight: after metadata commit (~10us in) but
	// before the 256KB DMA completes.
	h.eng.RunUntil(sim.Time(60 * sim.Microsecond))
	if !commitSeen {
		t.Fatal("test setup: write not reached")
	}
	// Crash with everything persisted-so-far applied.
	recs := h.dev.Records()
	all := make([]int, len(recs))
	for i := range all {
		all[i] = i
	}
	img := h.dev.CrashImage(all)
	h.eng.Shutdown()

	fs2, err := Mount(img, Options{Nova: nova.Options{NumInodes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(old))
	n, _ := fs2.FS.ReadAt(nil, f2, 0, got)
	if n != len(old) {
		t.Fatalf("post-crash size = %d", n)
	}
	if !bytes.Equal(got, old) {
		if bytes.Equal(got, newData) {
			t.Fatal("recovery kept a write whose DMA never landed (torn data possible)")
		}
		t.Fatal("post-crash contents are neither old nor new")
	}
}

// inflightSize is the overwrite the in-flight tests below put in flight.
const inflightSize = 256 << 10

// overwriteOnFullDevice builds the set-up those tests share: /f holds
// inflightSize bytes of 'O', /g and /src exist and are empty, and /fill
// takes every free block but the inflightSize/BlockSize an overwrite of
// /f needs. So a block freed while that overwrite is in flight is the
// next a write to /g gets.
func overwriteOnFullDevice(t *testing.T) (h *harness, f, g *nova.File) {
	t.Helper()
	h = newSizedHarness(t, 2, Options{}, 8<<20)
	f, err := h.fs.Create(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.fs.WriteAt(nil, f, 0, bytes.Repeat([]byte{'O'}, inflightSize)); err != nil {
		t.Fatal(err)
	}
	if g, err = h.fs.Create(nil, "/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.fs.Create(nil, "/src"); err != nil {
		t.Fatal(err)
	}
	fill, err := h.fs.Create(nil, "/fill")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.fs.WriteAt(nil, fill, 0, make([]byte, (h.fs.FreeBlocks()-inflightSize/nova.BlockSize)*nova.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if free := h.fs.FreeBlocks(); free != inflightSize/nova.BlockSize {
		t.Fatalf("test setup: %d free blocks after the fill, want %d", free, inflightSize/nova.BlockSize)
	}
	return h, f, g
}

// waitInFlight spins task until f's inode has an orderless write in
// flight.
func waitInFlight(task *caladan.Task, f *nova.File) {
	for f.Inode().Pending == 0 {
		task.Compute(100 * sim.Nanosecond)
	}
}

func TestCrashedOverwriteKeepsReplacedBlocks(t *testing.T) {
	// The replaced blocks of an orderless overwrite stay allocated until
	// its DMA lands: recovery discards the committed entry and falls back
	// to them (§4.2). Uthread A overwrites /f on a device whose only
	// blocks left are the 64 its overwrite needs, so a free at commit
	// time would hand A's old blocks to uthread B's writes on the second
	// core. The crash image is taken while A's DMA is still in flight.
	const size = inflightSize
	h, f, g := overwriteOnFullDevice(t)
	old := bytes.Repeat([]byte{'O'}, size)
	newData := bytes.Repeat([]byte{'N'}, size)
	h.dev.EnableTracking()

	h.rt.Spawn(0, "a", func(task *caladan.Task) {
		h.fs.WriteAt(task, f, 0, newData) // 256KB DMA
	})
	// crashAt is the number of persist records at the last point where
	// A's DMA was still in flight; records only append, so the image
	// built from them after the run is the image at that point.
	crashAt, wrote := -1, 0
	h.rt.Spawn(1, "b", func(task *caladan.Task) {
		waitInFlight(task, f)
		page := bytes.Repeat([]byte{'B'}, nova.BlockSize)
		for i := int64(0); i < 16 && f.Inode().Pending > 0; i++ {
			crashAt = len(h.dev.Records())
			if _, err := h.fs.WriteAt(task, g, i*nova.BlockSize, page); err != nil {
				return // no space: the replaced blocks are still allocated
			}
			wrote++
		}
		if f.Inode().Pending > 0 {
			crashAt = len(h.dev.Records())
		}
	})
	h.run()
	if crashAt < 0 {
		t.Fatal("test setup: A's DMA landed before B ran")
	}
	all := make([]int, crashAt)
	for i := range all {
		all[i] = i
	}
	img := h.dev.CrashImage(all)

	fs2, err := Mount(img, Options{Nova: nova.Options{NumInodes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if n, _ := fs2.ReadAt(nil, f2, 0, got); n != size {
		t.Fatalf("post-crash size = %d", n)
	}
	if !bytes.Equal(got, old) && !bytes.Equal(got, newData) {
		t.Fatalf("post-crash /f is neither its old nor its new contents (B wrote %d pages)", wrote)
	}
}

// TestNamespaceOpWaitsForInFlightWrite checks that an operation which
// frees /f's blocks waits for the orderless write still filling them
// (§4.2–4.3). Uthread A overwrites /f on a full device; while A's DMA is
// in flight, uthread B unlinks, truncates or renames over /f and then
// writes 4 KB pages to /g. Without the gate B's op frees A's destination
// blocks, /g's writes reuse them, and A's late DMA lands in /g.
func TestNamespaceOpWaitsForInFlightWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(h *harness, task *caladan.Task, f *nova.File) error
	}{
		{"unlink", func(h *harness, task *caladan.Task, _ *nova.File) error {
			return h.fs.Unlink(task, "/f")
		}},
		{"truncate", func(h *harness, task *caladan.Task, f *nova.File) error {
			return h.fs.Truncate(task, f, 0)
		}},
		{"rename over /f", func(h *harness, task *caladan.Task, _ *nova.File) error {
			return h.fs.Rename(task, "/src", "/f")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, f, g := overwriteOnFullDevice(t)
			h.rt.Spawn(0, "a", func(task *caladan.Task) {
				h.fs.WriteAt(task, f, 0, bytes.Repeat([]byte{'A'}, inflightSize))
			})
			const pages = 16
			h.rt.Spawn(1, "b", func(task *caladan.Task) {
				waitInFlight(task, f)
				if err := tc.op(h, task, f); err != nil {
					t.Errorf("%s: %v", tc.name, err)
					return
				}
				page := bytes.Repeat([]byte{'B'}, nova.BlockSize)
				for i := int64(0); i < pages; i++ {
					if _, err := h.fs.WriteAt(task, g, i*nova.BlockSize, page); err != nil {
						t.Errorf("write /g page %d: %v", i, err)
						return
					}
				}
			})
			h.run()
			got := make([]byte, pages*nova.BlockSize)
			if n, _ := h.fs.ReadAt(nil, g, 0, got); n != len(got) {
				t.Fatalf("/g holds %d bytes, want %d", n, len(got))
			}
			if a := bytes.Count(got, []byte{'A'}); a != 0 {
				t.Fatalf("/g holds %d bytes of the overwrite of /f", a)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{'B'}, len(got))) {
				t.Fatal("/g does not hold its own pages")
			}
		})
	}
}

// TestReadDuringInFlightWriteGetsNewData checks the read gate by the
// bytes a reader gets: a read of /f that starts while an overwrite's DMA
// is in flight returns the new data, never the zeros of the blocks the
// DMA has not filled yet.
func TestReadDuringInFlightWriteGetsNewData(t *testing.T) {
	h, f, _ := overwriteOnFullDevice(t)
	newData := bytes.Repeat([]byte{'A'}, inflightSize)
	got := make([]byte, inflightSize)
	h.rt.Spawn(0, "a", func(task *caladan.Task) {
		h.fs.WriteAt(task, f, 0, newData)
	})
	h.rt.Spawn(1, "r", func(task *caladan.Task) {
		waitInFlight(task, f)
		if n, err := h.fs.ReadAt(task, f, 0, got); n != len(got) || err != nil {
			t.Errorf("read = %d, %v", n, err)
		}
	})
	h.run()
	if !bytes.Equal(got, newData) {
		t.Fatalf("read during the write got %d bytes of the new data, %d zeros", bytes.Count(got, []byte{'A'}), bytes.Count(got, []byte{0}))
	}
}

// TestOrderlessWriteLandingBeforeCommit covers a DMA write whose data
// lands before its metadata commit. With a 1 KB offload cutoff a 4 KB
// write takes the orderless path, and its one-page descriptor completes
// during the MetaAppend+MetaCommit charge, before ApplyWriteEntries. The
// write must still free the blocks it replaced, leave no wake pending for
// the uthread's next park, and leave its pooled descriptor idle for the
// next operation.
func TestOrderlessWriteLandingBeforeCommit(t *testing.T) {
	h := newHarness(t, 1, Options{})
	h.fs.SetMinDMASize(1 << 10)
	page := bytes.Repeat([]byte{'p'}, nova.BlockSize)
	q := make([]byte, 64<<10)
	rng.New(5).Bytes(q)
	r := bytes.Repeat([]byte{'r'}, 64<<10)
	got := make([]byte, len(q))
	var freeBefore, freeAfter int64
	var slept sim.Duration
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		fq, _ := h.fs.Create(task, "/q")
		fr, _ := h.fs.Create(task, "/r")
		h.fs.WriteAt(task, f, 0, page)
		freeBefore = h.fs.FreeBlocks()
		for i := 0; i < 8; i++ {
			h.fs.WriteAt(task, f, 0, page)
		}
		freeAfter = h.fs.FreeBlocks()
		start := task.Now()
		task.Sleep(10 * sim.Microsecond)
		slept = sim.Duration(task.Now() - start)

		h.fs.WriteAt(task, f, 0, page)
		h.fs.WriteAt(task, fq, 0, q)
		h.fs.WriteAt(task, fr, 0, r)
		h.fs.ReadAt(task, fq, 0, got)
	})
	h.run()
	if freeAfter != freeBefore {
		t.Errorf("8 overwrites of a 4 KB file leaked %d blocks", freeBefore-freeAfter)
	}
	if slept < 10*sim.Microsecond {
		t.Errorf("a 10 µs sleep after the overwrites returned in %v", slept)
	}
	if !bytes.Equal(got, q) {
		t.Error("/q read back wrong bytes: a pooled descriptor was reused while in flight")
	}
}

func TestRecoveryKeepsFinishedWrite(t *testing.T) {
	h := newHarness(t, 1, Options{})
	data := bytes.Repeat([]byte{'D'}, 128<<10)
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.dev.EnableTracking()
		h.fs.WriteAt(task, f, 0, data)
	})
	h.run() // write fully completes
	recs := h.dev.Records()
	all := make([]int, len(recs))
	for i := range all {
		all[i] = i
	}
	img := h.dev.CrashImage(all)
	fs2, err := Mount(img, Options{Nova: nova.Options{NumInodes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Open(nil, "/f")
	got := make([]byte, len(data))
	fs2.FS.ReadAt(nil, f2, 0, got)
	if !bytes.Equal(got, data) {
		t.Fatal("completed write lost after crash")
	}
}

func TestNaiveSlowerThanOrderless(t *testing.T) {
	// Fig 11 left: orderless overlap shortens write latency.
	measure := func(naive bool) sim.Duration {
		h := newHarness(t, 1, Options{Naive: naive, BusyPoll: true})
		var dur sim.Duration
		h.rt.Spawn(0, "w", func(task *caladan.Task) {
			f, _ := h.fs.Create(task, "/f")
			h.fs.WriteAt(task, f, 0, make([]byte, 4096)) // warm
			start := task.Now()
			for i := 0; i < 16; i++ {
				h.fs.WriteAt(task, f, 0, make([]byte, 64<<10))
			}
			dur = sim.Duration(task.Now()-start) / 16
		})
		h.run()
		return dur
	}
	orderless, naive := measure(false), measure(true)
	if orderless >= naive {
		t.Fatalf("orderless (%v) not faster than naive (%v)", orderless, naive)
	}
	gain := 1 - float64(orderless)/float64(naive)
	if gain < 0.08 || gain > 0.45 {
		t.Fatalf("orderless gain = %.2f, want ~0.18 (Fig 11)", gain)
	}
}

func TestEasyIOCPUShareAt64K(t *testing.T) {
	// Fig 8: at 64 KB the CPU performs only ~37% (write) and ~5% (read)
	// of the operation; the rest is harvestable.
	h := newHarness(t, 1, Options{BusyPoll: true})
	var wDur, rDur sim.Duration
	h.rt.Spawn(0, "w", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		start := task.Now()
		h.fs.WriteAt(task, f, 0, make([]byte, 64<<10))
		wDur = sim.Duration(task.Now() - start)
		start = task.Now()
		h.fs.ReadAt(task, f, 0, make([]byte, 64<<10))
		rDur = sim.Duration(task.Now() - start)
	})
	h.run()
	wShare := float64(h.fs.CPUTimeWrite) / float64(wDur)
	rShare := float64(h.fs.CPUTimeRead) / float64(rDur)
	if wShare < 0.2 || wShare > 0.55 {
		t.Fatalf("write CPU share = %.2f (dur %v, cpu %v), want ~0.37", wShare, wDur, h.fs.CPUTimeWrite)
	}
	if rShare < 0.01 || rShare > 0.25 {
		t.Fatalf("read CPU share = %.2f (dur %v, cpu %v), want ~0.05", rShare, rDur, h.fs.CPUTimeRead)
	}
}

func TestManagerAdaptiveThrottling(t *testing.T) {
	h := newHarness(t, 1, Options{Manager: ManagerOptions{Adaptive: true, BLimit: 4e9}})
	m := h.fs.Manager()
	lapp := m.RegisterLApp(20 * sim.Microsecond)
	m.Start()
	// Violate the SLO for a while: the limit must come down.
	for i := 0; i < 40; i++ {
		d := sim.Duration(i) * Epoch
		h.eng.After(d, func() { lapp.Report(100 * sim.Microsecond) })
	}
	h.eng.RunUntil(sim.Time(41 * Epoch))
	if m.BLimit() >= 4e9 {
		t.Fatalf("SLO violations did not throttle B-apps: limit = %.2g", m.BLimit())
	}
	down := m.BLimit()
	// Now meet the SLO comfortably: the limit recovers. (After is
	// relative to the already-advanced clock.)
	for i := 1; i < 40; i++ {
		d := sim.Duration(i) * Epoch
		h.eng.After(d, func() { lapp.Report(2 * sim.Microsecond) })
	}
	h.eng.RunUntil(h.eng.Now() + sim.Time(41*Epoch))
	if m.BLimit() <= down {
		t.Fatal("meeting the SLO did not raise the B-app limit")
	}
	m.Stop()
	h.eng.Run()
	h.eng.Shutdown()
}

func TestManagerBudgetSuspendsBChannel(t *testing.T) {
	h := newHarness(t, 1, Options{Manager: ManagerOptions{BLimit: 1e9}})
	m := h.fs.Manager()
	m.Start()
	// Saturate the B channel with bulk traffic far above 1 GB/s.
	h.rt.Spawn(0, "gc", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/bulk")
		for i := 0; i < 8; i++ {
			h.fs.WriteAtClass(task, f, 0, make([]byte, 2<<20), ClassB)
		}
	})
	h.eng.RunUntil(sim.Time(20 * sim.Millisecond))
	if m.SuspendCount() == 0 {
		t.Fatal("budget enforcement never suspended the B channel")
	}
	// Effective B throughput must be near the 1 GB/s budget.
	moved := m.BChannel().Chan.BytesCompleted()
	secs := float64(h.eng.Now()) / 1e9
	rate := float64(moved) / secs
	if rate > 1.6e9 {
		t.Fatalf("B-app rate %.2g B/s exceeds budget 1e9 substantially", rate)
	}
	m.Stop()
	h.eng.Run()
	h.eng.Shutdown()
}
