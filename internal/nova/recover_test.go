package nova

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

const sparseInodes = 1024

// sparseTablePage is the inode-table page holding inode num.
func sparseTablePage(num int64) int64 {
	return (InodeTableOff + num*InodeSlotSize) / BlockSize
}

// populateSparse formats a device and leaves live inodes on inode-table
// pages 0, 2 and 6, with pages 1 and 3–5 never written: /a is inode 2,
// directory /d is 70 with /d/b (71, also linked as /d/l), and /c is 200.
// Inode 400 (page 12) is an orphan with data, created but never linked,
// as a crash before its dentry commits leaves it. free is the free-block
// count before the orphan was made: what recovery must give back.
func populateSparse(t *testing.T) (dev *pmem.Device, opts Options, free int64) {
	t.Helper()
	dev = pmem.New(sim.NewEngine(), perfmodel.System(), 256<<20)
	opts = Options{NumInodes: sparseInodes}
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5*BlockSize+100)
	rng.New(3).Bytes(data)
	write := func(f *File, n int) {
		t.Helper()
		if _, err := fs.WriteAt(nil, f, 0, data[:n]); err != nil {
			t.Fatal(err)
		}
	}
	create := func(path string) *File {
		t.Helper()
		f, err := fs.Create(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	a := create("/a")
	write(a, 3*BlockSize+100)
	a.Close()
	fs.inoHint = 70
	if err := fs.Mkdir(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	b := create("/d/b")
	write(b, 100)
	b.Close()
	if err := fs.Link(nil, "/d/b", "/d/l"); err != nil {
		t.Fatal(err)
	}
	fs.inoHint = 200
	c := create("/c")
	write(c, len(data))
	if err := fs.Truncate(nil, c, 2*BlockSize+7); err != nil {
		t.Fatal(err)
	}
	c.Close()
	free = fs.FreeBlocks()

	fs.inoHint = 400
	orphan, err := fs.allocInode(KindFile)
	if err != nil {
		t.Fatal(err)
	}
	o := &File{fs: fs, ino: orphan}
	write(o, 4*BlockSize)
	o.Close()

	for _, num := range []uint32{2, 70, 71, 200, 400} {
		if fs.inodes.get(num) == nil {
			t.Fatalf("inode %d not allocated where the test placed it", num)
		}
	}
	for pg, want := range map[int64]bool{0: true, 1: false, 2: true, 3: false, 5: false, 6: true, 12: true} {
		if absent := dev.Absent((sparseTablePage(0)+pg)*BlockSize, BlockSize); absent == want {
			t.Fatalf("inode-table page %d absent=%v, want present=%v", pg, absent, want)
		}
	}
	return dev, opts, free
}

// TestRemountSparseTable: a remount over live inodes on three table pages,
// with absent pages between them and an orphan the sweep must clear,
// rebuilds the files, frees the orphan's blocks and leaves its slot
// invalid.
func TestRemountSparseTable(t *testing.T) {
	dev, opts, free := populateSparse(t)
	fs, err := Mount(dev, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5*BlockSize+100)
	rng.New(3).Bytes(data)
	for _, c := range []struct {
		path  string
		want  []byte
		nlink uint32
	}{
		{"/a", data[:3*BlockSize+100], 1},
		{"/d/b", data[:100], 2},
		{"/d/l", data[:100], 2},
		{"/c", data[:2*BlockSize+7], 1},
	} {
		st, err := fs.Stat(nil, c.path)
		if err != nil || st.Size != int64(len(c.want)) || st.Nlink != c.nlink {
			t.Fatalf("%s: stat %+v %v, want size %d nlink %d", c.path, st, err, len(c.want), c.nlink)
		}
		f, err := fs.Open(nil, c.path)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(c.want))
		fs.ReadAt(nil, f, 0, got)
		f.Close()
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: contents lost across remount", c.path)
		}
	}
	if fs.inodes.get(400) != nil {
		t.Fatal("orphan inode 400 survived the sweep")
	}
	slot := make([]byte, 1)
	dev.ReadAt(slot, InodeTableOff+400*InodeSlotSize)
	if slot[0] != 0 {
		t.Fatal("orphan slot still valid after the sweep")
	}
	if fs.FreeBlocks() != free {
		t.Fatalf("FreeBlocks = %d after remount, want %d (the orphan's blocks returned)", fs.FreeBlocks(), free)
	}
}

// TestRemountSkipsAbsentPagesExactly: recovery that skips absent
// inode-table pages must equal recovery that decodes them. The same
// filesystem is built twice; on the second device every absent table page
// is made present with a byte that leaves its slots invalid. Both mounts
// must agree on every inode, the free count, the log-page count, every
// bitmap word and the next allocations.
func TestRemountSkipsAbsentPagesExactly(t *testing.T) {
	sparse, opts, _ := populateSparse(t)
	dense, _, _ := populateSparse(t)
	first, end := sparseTablePage(0), sparseTablePage(sparseInodes)
	filled := 0
	for pg := first; pg < end; pg++ {
		if dense.Absent(pg*BlockSize, BlockSize) {
			dense.WriteAt(pg*BlockSize+InodeSlotSize-1, []byte{0xee}) // last byte of the page's first slot
			filled++
		}
	}
	if filled == 0 || dense.Absent(sparseTablePage(40)*BlockSize, BlockSize) {
		t.Fatalf("made %d table pages present, want all absent ones", filled)
	}

	got, err := Mount(sparse, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mount(dense, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for num := uint32(0); num < uint32(want.inodes.n); num++ {
		g, w := got.inodes.get(num), want.inodes.get(num)
		if (g == nil) != (w == nil) {
			t.Fatalf("inode %d live=%v, decoding every page gives live=%v", num, g != nil, w != nil)
		}
		if g != nil && (g.Kind != w.Kind || g.Nlink != w.Nlink || g.Size != w.Size || g.logTail != w.logTail) {
			t.Fatalf("inode %d = %+v, decoding every page gives %+v", num, g, w)
		}
	}
	if got.FreeBlocks() != want.FreeBlocks() || got.logPageCount != want.logPageCount {
		t.Fatalf("free %d log pages %d, decoding every page gives %d and %d",
			got.FreeBlocks(), got.logPageCount, want.FreeBlocks(), want.logPageCount)
	}
	for w := int64(0); w < want.alloc.nwords; w++ {
		if got.alloc.word(w) != want.alloc.word(w) {
			t.Fatalf("bitmap word %d = %#x, decoding every page gives %#x", w, got.alloc.word(w), want.alloc.word(w))
		}
	}
	for _, n := range []int{1, 7, 300, 2} {
		g, gok := got.alloc.allocRun(n)
		w, wok := want.alloc.allocRun(n)
		if g != w || gok != wok {
			t.Fatalf("allocRun(%d) = %v %v, decoding every page gives %v %v", n, g, gok, w, wok)
		}
	}
}

// TestMkfsOverPopulatedDevice: formatting a device that holds a filesystem
// leaves the same journal and inode table as formatting a blank device,
// and the result mounts as a fresh filesystem: root only, with a fresh
// device's free-block count.
func TestMkfsOverPopulatedDevice(t *testing.T) {
	dev, opts, _ := populateSparse(t)
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	blank := pmem.New(sim.NewEngine(), perfmodel.System(), dev.Size())
	if err := Mkfs(blank, opts); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{JournalOff, 40}, {InodeTableOff, sparseInodes * InodeSlotSize}} {
		got, want := make([]byte, r[1]), make([]byte, r[1])
		dev.ReadAt(got, r[0])
		blank.ReadAt(want, r[0])
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes [%d, %d) differ from a blank device's after Mkfs", r[0], r[0]+r[1])
		}
	}

	fs, err := Mount(dev, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Mount(blank, CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.Readdir(nil, "/")
	if err != nil || len(names) != 0 {
		t.Fatalf("root lists %v (%v) after Mkfs, want nothing", names, err)
	}
	for num := uint32(0); num < uint32(fs.inodes.n); num++ {
		if fs.inodes.get(num) != nil && num != RootIno {
			t.Fatalf("inode %d live after Mkfs", num)
		}
	}
	if fs.FreeBlocks() != fresh.FreeBlocks() {
		t.Fatalf("FreeBlocks = %d after Mkfs, a blank device gives %d", fs.FreeBlocks(), fresh.FreeBlocks())
	}
}
