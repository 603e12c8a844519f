package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// TestConcurrentRandomOpsProperty runs many uthreads doing random reads
// and writes over a small file set and checks, per file, that the final
// contents equal the last-completed write's payload — i.e. the two-level
// lock serializes conflicting async operations correctly even with the
// index updated before data lands.
func TestConcurrentRandomOpsProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHarness(t, 4, Options{})
			g := rng.New(seed)
			const nFiles = 3
			files := make([]*nova.File, nFiles)
			for i := range files {
				f, err := h.fs.Create(nil, fmt.Sprintf("/f%d", i))
				if err != nil {
					t.Fatal(err)
				}
				files[i] = f
			}
			// lastWrite[file] = tag of the most recently *completed* write.
			lastWrite := make([]byte, nFiles)
			writeSize := 32 << 10

			const nWorkers = 8
			for w := 0; w < nWorkers; w++ {
				wg := g.Fork(uint64(w))
				tag := byte('a' + w)
				h.rt.Spawn(w%4, fmt.Sprintf("w%d", w), func(task *caladan.Task) {
					for op := 0; op < 25; op++ {
						fi := wg.Intn(nFiles)
						if wg.Intn(2) == 0 {
							data := bytes.Repeat([]byte{tag}, writeSize)
							if _, err := h.fs.WriteAt(task, files[fi], 0, data); err != nil {
								t.Errorf("write: %v", err)
								return
							}
							// WriteAt returns only after the DMA landed, so
							// this is the serialization point.
							lastWrite[fi] = tag
						} else {
							buf := make([]byte, writeSize)
							n, err := h.fs.ReadAt(task, files[fi], 0, buf)
							if err != nil {
								t.Errorf("read: %v", err)
								return
							}
							// A read must never observe torn data: all
							// returned bytes carry a single writer's tag.
							// Zero is no writer's tag: it is what the blocks
							// of a write still in flight hold.
							if n > 0 && buf[0] == 0 {
								t.Errorf("read of file %d returned %d bytes of zeros before the write landed", fi, n)
								return
							}
							for i := 1; i < n; i++ {
								if buf[i] != buf[0] {
									t.Errorf("torn read on file %d at byte %d: %c vs %c", fi, i, buf[i], buf[0])
									return
								}
							}
						}
						task.Sleep(sim.Duration(wg.Intn(20)) * sim.Microsecond)
					}
				})
			}
			h.run()
			for fi, f := range files {
				if lastWrite[fi] == 0 {
					continue
				}
				got := make([]byte, writeSize)
				h.fs.FS.ReadAt(nil, f, 0, got)
				want := bytes.Repeat([]byte{lastWrite[fi]}, writeSize)
				if !bytes.Equal(got, want) {
					t.Fatalf("file %d: final contents %c..., want %c", fi, got[0], lastWrite[fi])
				}
			}
		})
	}
}

// TestConcurrentAppendersDistinctFiles checks full throughput-path
// integrity: concurrent appenders on private files never corrupt sizes.
func TestConcurrentAppendersDistinctFiles(t *testing.T) {
	h := newHarness(t, 4, Options{})
	const nWorkers = 8
	const appends = 30
	const chunk = 8 << 10
	files := make([]*nova.File, nWorkers)
	for w := 0; w < nWorkers; w++ {
		w := w
		h.rt.Spawn(-1, fmt.Sprintf("a%d", w), func(task *caladan.Task) {
			f, err := h.fs.Create(task, fmt.Sprintf("/app%d", w))
			if err != nil {
				t.Error(err)
				return
			}
			files[w] = f
			for i := 0; i < appends; i++ {
				h.fs.Append(task, f, bytes.Repeat([]byte{byte(i)}, chunk))
			}
		})
	}
	h.run()
	for w, f := range files {
		if f == nil {
			t.Fatalf("worker %d never created its file", w)
		}
		if f.Size() != appends*chunk {
			t.Fatalf("file %d size = %d, want %d", w, f.Size(), appends*chunk)
		}
		// Spot-check the last chunk's contents.
		buf := make([]byte, chunk)
		h.fs.FS.ReadAt(nil, f, (appends-1)*chunk, buf)
		if buf[0] != byte(appends-1) || buf[chunk-1] != byte(appends-1) {
			t.Fatalf("file %d last chunk corrupted", w)
		}
	}
}

// TestCrashDuringConcurrentLoad crashes mid-load and verifies recovery
// yields a mountable filesystem whose files each hold a single writer's
// un-torn data.
func TestCrashDuringConcurrentLoad(t *testing.T) {
	h := newHarness(t, 4, Options{})
	const nFiles = 4
	for i := 0; i < nFiles; i++ {
		h.fs.Create(nil, fmt.Sprintf("/c%d", i))
	}
	h.dev.EnableTracking()
	for w := 0; w < 8; w++ {
		w := w
		tag := byte('A' + w)
		h.rt.Spawn(-1, "w", func(task *caladan.Task) {
			f, _ := h.fs.Open(task, fmt.Sprintf("/c%d", w%nFiles))
			for i := 0; i < 50; i++ {
				h.fs.WriteAt(task, f, 0, bytes.Repeat([]byte{tag}, 24<<10))
			}
		})
	}
	h.eng.RunUntil(sim.Time(300 * sim.Microsecond)) // crash mid-flight
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
	for i := 0; i < nFiles; i++ {
		f, err := fs2.Open(nil, fmt.Sprintf("/c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() == 0 {
			continue // no write had committed yet
		}
		buf := make([]byte, f.Size())
		fs2.FS.ReadAt(nil, f, 0, buf)
		for k := 1; k < len(buf); k++ {
			if buf[k] != buf[0] {
				t.Fatalf("file %d torn after crash: byte %d is %c, byte 0 is %c", i, k, buf[k], buf[0])
			}
		}
	}
}
