package nova

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// newFS formats and mounts a small filesystem with the CPU mover.
func newFS(t *testing.T) (*sim.Engine, *pmem.Device, *FS) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	opts := Options{NumInodes: 1024}
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev, fs
}

func TestUnlinkFreesSpace(t *testing.T) {
	_, _, fs := newFS(t)
	before := fs.FreeBlocks()
	f, _ := fs.Create(nil, "/big")
	fs.WriteAt(nil, f, 0, make([]byte, 64*BlockSize))
	if fs.FreeBlocks() >= before {
		t.Fatal("write consumed no blocks")
	}
	if err := fs.Unlink(nil, "/big"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != before {
		t.Fatalf("unlink leaked: %d != %d", fs.FreeBlocks(), before)
	}
	if _, err := fs.Open(nil, "/big"); err != ErrNotExist {
		t.Fatalf("open after unlink: %v", err)
	}
}

func TestOverwriteFreesOldBlocks(t *testing.T) {
	_, _, fs := newFS(t)
	f, _ := fs.Create(nil, "/f")
	fs.WriteAt(nil, f, 0, make([]byte, 16*BlockSize))
	free1 := fs.FreeBlocks()
	for i := 0; i < 10; i++ {
		fs.WriteAt(nil, f, 0, make([]byte, 16*BlockSize))
	}
	// CoW must free replaced blocks: allow slack for extra log pages.
	if free1-fs.FreeBlocks() > 2 {
		t.Fatalf("CoW leaked blocks: %d -> %d", free1, fs.FreeBlocks())
	}
}

func TestRenameCrossDirWithReplace(t *testing.T) {
	_, _, fs := newFS(t)
	fs.Mkdir(nil, "/src")
	fs.Mkdir(nil, "/dst")
	f, _ := fs.Create(nil, "/src/a")
	fs.WriteAt(nil, f, 0, []byte("AAA"))
	victim, _ := fs.Create(nil, "/dst/b")
	fs.WriteAt(nil, victim, 0, make([]byte, 8*BlockSize))
	free := fs.FreeBlocks()
	if err := fs.Rename(nil, "/src/a", "/dst/b"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() <= free {
		t.Fatal("replaced file's blocks not freed")
	}
	g, _ := fs.Open(nil, "/dst/b")
	buf := make([]byte, 3)
	fs.ReadAt(nil, g, 0, buf)
	if string(buf) != "AAA" {
		t.Fatalf("content = %q", buf)
	}
}

func TestTruncate(t *testing.T) {
	_, _, fs := newFS(t)
	f, _ := fs.Create(nil, "/f")
	fs.WriteAt(nil, f, 0, make([]byte, 4*BlockSize))
	free := fs.FreeBlocks()
	fs.Truncate(nil, f, BlockSize+10)
	if f.Size() != BlockSize+10 {
		t.Fatalf("size = %d", f.Size())
	}
	if fs.FreeBlocks() <= free {
		t.Fatal("truncate freed nothing")
	}
}

func TestRemountRebuildsState(t *testing.T) {
	_, dev, fs := newFS(t)
	data := make([]byte, 3*BlockSize+100)
	rng.New(2).Bytes(data)
	f, _ := fs.Create(nil, "/dir-less-file")
	fs.WriteAt(nil, f, 0, data)
	fs.Mkdir(nil, "/d")
	g, _ := fs.Create(nil, "/d/child")
	fs.Append(nil, g, []byte("child-data"))
	fs.Link(nil, "/d/child", "/d/link")
	free := fs.FreeBlocks()

	fs2, err := Mount(dev, CPUMover{}, Options{NumInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open(nil, "/dir-less-file")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	fs2.ReadAt(nil, f2, 0, got)
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across remount")
	}
	st, err := fs2.Stat(nil, "/d/link")
	if err != nil || st.Nlink != 2 {
		t.Fatalf("link state lost: %+v, %v", st, err)
	}
	if fs2.FreeBlocks() != free {
		t.Fatalf("allocator rebuild mismatch: %d != %d", fs2.FreeBlocks(), free)
	}
	buf := make([]byte, 10)
	g2, _ := fs2.Open(nil, "/d/child")
	fs2.ReadAt(nil, g2, 0, buf)
	if string(buf) != "child-data" {
		t.Fatalf("child data = %q", buf)
	}
}

func TestLogSpansMultiplePages(t *testing.T) {
	_, dev, fs := newFS(t)
	f, _ := fs.Create(nil, "/f")
	// Each small write appends a ~54B entry; hundreds of writes span
	// several log pages.
	var want []byte
	for i := 0; i < 500; i++ {
		chunk := []byte{byte(i), byte(i >> 8)}
		fs.Append(nil, f, chunk)
		want = append(want, chunk...)
	}
	got := make([]byte, len(want))
	fs.ReadAt(nil, f, 0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("multi-page log content mismatch")
	}
	// Remount replays the full chain.
	fs2, err := Mount(dev, CPUMover{}, Options{NumInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Open(nil, "/f")
	got2 := make([]byte, len(want))
	fs2.ReadAt(nil, f2, 0, got2)
	if !bytes.Equal(got2, want) {
		t.Fatal("multi-page log lost on remount")
	}
}

func TestWriteTimingMatchesModel(t *testing.T) {
	// A 64 KB single-threaded write should take roughly Fig 1's latency:
	// syscall + indexing + alloc + memcpy(64K @ CPUWriteRate) + metadata.
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	Mkfs(dev, Options{NumInodes: 256})
	fs, _ := Mount(dev, CPUMover{}, Options{NumInodes: 256})
	rt := caladan.New(eng, caladan.Options{Cores: 1})
	var dur sim.Duration
	rt.Spawn(0, "test", func(task *caladan.Task) {
		f, _ := fs.Create(task, "/f")
		start := task.Now()
		fs.WriteAt(task, f, 0, make([]byte, 64<<10))
		dur = sim.Duration(task.Now() - start)
	})
	eng.Run()
	eng.Shutdown()
	m := perfmodel.System()
	memcpy := sim.Duration(float64(64<<10) / m.CPUWriteRate * 1e9)
	if dur < memcpy || dur > memcpy+8*sim.Microsecond {
		t.Fatalf("64K write latency = %v, memcpy alone = %v", dur, memcpy)
	}
	frac := float64(memcpy) / float64(dur)
	if frac < 0.55 || frac > 0.85 {
		t.Fatalf("memcpy share = %.2f, want ~0.63 (Fig 1)", frac)
	}
}

func TestEphemeralDataModeKeepsMetadata(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 64<<20)
	opts := Options{NumInodes: 256, EphemeralData: true}
	Mkfs(dev, opts)
	fs, _ := Mount(dev, CPUMover{}, opts)
	f, _ := fs.Create(nil, "/f")
	fs.WriteAt(nil, f, 0, make([]byte, 8*BlockSize))
	if f.Size() != 8*BlockSize {
		t.Fatal("metadata not functional in ephemeral mode")
	}
	got := make([]byte, 10)
	n, _ := fs.ReadAt(nil, f, 0, got)
	if n != 10 {
		t.Fatal("read length wrong in ephemeral mode")
	}
}

// TestLinkUnlinkShareLockOrder pins the one lock order of the namespace
// operations: a directory before a file. /f is inode 2 and /d inode 3,
// with /d/g a hard link to /f. Uthread W holds /f's lock across a long
// write; Link("/f", "/d/h") then queues on /f, and Unlink("/d/g") takes
// /d and queues on /f. Had Link locked in inode-number order (/f before
// /d), it would get /f from W and wait on /d while Unlink, holding /d,
// waits on /f, and neither would return.
func TestLinkUnlinkShareLockOrder(t *testing.T) {
	eng, _, fs := newFS(t)
	f, err := fs.Create(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(nil, "/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if f.Inode().Num != 2 || fs.Root().dirents["d"] != 3 {
		t.Fatalf("test setup: /f is inode %d and /d inode %d, want 2 and 3", f.Inode().Num, fs.Root().dirents["d"])
	}
	rt := caladan.New(eng, caladan.Options{Cores: 3})
	var linked, unlinked bool
	rt.Spawn(0, "w", func(task *caladan.Task) {
		fs.WriteAt(task, f, 0, make([]byte, 1<<20))
	})
	rt.Spawn(1, "link", func(task *caladan.Task) {
		task.Sleep(sim.Microsecond)
		if err := fs.Link(task, "/f", "/d/h"); err != nil {
			t.Errorf("link: %v", err)
		}
		linked = true
	})
	rt.Spawn(2, "unlink", func(task *caladan.Task) {
		task.Sleep(20 * sim.Microsecond)
		if err := fs.Unlink(task, "/d/g"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		unlinked = true
	})
	eng.Run()
	eng.Shutdown()
	if !linked || !unlinked {
		t.Fatalf("link returned %v, unlink returned %v: the two deadlocked", linked, unlinked)
	}
	if st, err := fs.Stat(nil, "/d/h"); err != nil || st.Nlink != 2 {
		t.Fatalf("/d/h: %+v, %v; want 2 links", st, err)
	}
}

// TestRenameOverFileWaitsForWriter checks that Rename locks the file it
// replaces: uthread W overwrites /f and holds /f's lock across the copy
// while Rename("/src", "/f") replaces /f. Without that lock Rename frees
// /f's blocks mid-write, and W's own free of the blocks it replaced
// frees them a second time.
func TestRenameOverFileWaitsForWriter(t *testing.T) {
	eng, _, fs := newFS(t)
	f, err := fs.Create(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(nil, f, 0, make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	src, err := fs.Create(nil, "/src")
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: 2})
	var wrote, renamed bool
	rt.Spawn(0, "w", func(task *caladan.Task) {
		if _, err := fs.WriteAt(task, f, 0, make([]byte, 256<<10)); err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = true
	})
	rt.Spawn(1, "rename", func(task *caladan.Task) {
		task.Sleep(sim.Microsecond)
		if err := fs.Rename(task, "/src", "/f"); err != nil {
			t.Errorf("rename: %v", err)
		}
		renamed = true
	})
	eng.Run()
	eng.Shutdown()
	if !wrote || !renamed {
		t.Fatalf("write returned %v, rename returned %v", wrote, renamed)
	}
	if st, err := fs.Stat(nil, "/f"); err != nil || st.Ino != src.Inode().Num {
		t.Fatalf("/f after rename: %+v, %v; want inode %d", st, err, src.Inode().Num)
	}
}
