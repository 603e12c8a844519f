package analysis

import (
	"strings"
	"testing"
)

// deviceFixture declares a pmem-like Device so the persistence automaton
// recognizes stores, fences and commit offsets by shape, exactly as it
// does against the real tree.
const deviceFixture = `package fx
type Device struct{}
func (d *Device) WriteAt(off int64, b []byte) {}
func (d *Device) Write8(off int64, v uint64)  {}
func (d *Device) Fence()                      {}
const (
	SuperOff   = int64(0)
	JournalOff = int64(64)
)
`

func TestPersistOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"fenced commit accepted", deviceFixture + `
func Ok(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.Fence()
	d.WriteAt(JournalOff, b)
	d.Fence()
}
`, 0},
		{"fence-dropped mutant flagged", deviceFixture + `
func Bad(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.WriteAt(JournalOff, b)
	d.Fence()
}
`, 1},
		{"interprocedural pending store flagged", deviceFixture + `
func writeSlot(d *Device, b []byte) { d.WriteAt(4096, b) }
func Bad(d *Device, b []byte) {
	writeSlot(d, b)
	d.WriteAt(JournalOff, b)
	d.Fence()
}
`, 1},
		{"callee committing before its fence flagged at call site", deviceFixture + `
func commit(d *Device, b []byte) {
	d.WriteAt(JournalOff, b)
	d.Fence()
}
func Bad(d *Device, b []byte) {
	d.WriteAt(4096, b)
	commit(d, b)
}
`, 1},
		{"fence on one branch only still flagged", deviceFixture + `
func Bad(d *Device, b []byte, c bool) {
	d.WriteAt(4096, b)
	if c {
		d.Fence()
	}
	d.WriteAt(JournalOff, b)
	d.Fence()
}
`, 1},
		{"CommitTail recognized by name, unfenced caller flagged", deviceFixture + `
type FS struct{ d *Device }
func (f *FS) CommitTail(v uint64) { f.d.Write8(100, v) }
func Bad(f *FS, b []byte) {
	f.d.WriteAt(4096, b)
	f.CommitTail(9)
	f.d.Fence()
}
`, 1},
		{"AppendEntries idiom accepted: fence, then defer CommitTail", deviceFixture + `
type FS struct{ d *Device }
func (f *FS) CommitTail(v uint64) { f.d.Write8(100, v) }
func AppendEntries(f *FS, b []byte) {
	f.d.WriteAt(4096, b)
	f.d.Fence()
	defer f.CommitTail(9)
}
`, 0},
		{"suppressed with allow comment", deviceFixture + `
func Bad(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.WriteAt(JournalOff, b) //easyio:allow persistorder (torn-commit fault injection fixture)
	d.Fence()
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, PersistOrder, "", tc.src), tc.want, "persistorder")
		})
	}
}

func TestPersistOrderMessage(t *testing.T) {
	diags := runFixture(t, PersistOrder, "", deviceFixture+`
func Bad(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.WriteAt(JournalOff, b)
	d.Fence()
}
`)
	wantFindings(t, diags, 1, "persistorder")
	msg := diags[0].Message
	for _, frag := range []string{"unfenced", "d.WriteAt", "Device.Fence"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("message %q missing %q", msg, frag)
		}
	}
}

func TestFenceHygiene(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"redundant back-to-back fence flagged", deviceFixture + `
func Bad(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.Fence()
	d.Fence()
}
`, 1},
		{"fence after conditional store kept", deviceFixture + `
func Ok(d *Device, b []byte, c bool) {
	d.WriteAt(8192, b)
	d.Fence()
	if c {
		d.WriteAt(4096, b)
	}
	d.Fence()
}
`, 0},
		{"store leaking from a call-graph root flagged", deviceFixture + `
func Bad(d *Device, b []byte) {
	d.WriteAt(4096, b)
}
`, 1},
		{"helper defers fencing to its caller", deviceFixture + `
func writeSlot(d *Device, b []byte) { d.WriteAt(4096, b) }
func Root(d *Device, b []byte) {
	writeSlot(d, b)
	d.Fence()
}
`, 0},
		{"interface-implementing method exempt from leak check", deviceFixture + `
type Mover interface{ Move(d *Device, b []byte) }
type M struct{}
func (M) Move(d *Device, b []byte) { d.WriteAt(4096, b) }
`, 0},
		{"deferred fence covers the exit", deviceFixture + `
func Ok(d *Device, b []byte) {
	defer d.Fence()
	d.WriteAt(4096, b)
}
`, 0},
		{"fence after a must-fence clean-exit callee flagged", deviceFixture + `
func flush(d *Device, b []byte) {
	d.WriteAt(4096, b)
	d.Fence()
}
func Bad(d *Device, b []byte) {
	flush(d, b)
	d.Fence()
}
`, 1},
		{"interface call between two fences keeps the second", deviceFixture + `
type Syncer interface{ Sync() }
func Ok(d *Device, b []byte, s Syncer) {
	d.WriteAt(4096, b)
	d.Fence()
	s.Sync()
	d.Fence()
}
`, 0},
		{"back-to-back fence inside a function literal flagged", deviceFixture + `
func Run(d *Device, b []byte) func() {
	return func() {
		d.WriteAt(4096, b)
		d.Fence()
		d.Fence()
	}
}
`, 1},
		{"deferred helper store leaks at a root", deviceFixture + `
func writeSlot(d *Device, b []byte) { d.WriteAt(4096, b) }
func Bad(d *Device, b []byte) {
	defer writeSlot(d, b)
	d.Fence()
}
`, 1},
		{"unknown deferred call spoils the callee's clean exit", deviceFixture + `
func sync(d *Device, done func()) {
	defer done()
	d.Fence()
}
func Ok(d *Device, done func()) {
	sync(d, done)
	d.Fence()
}
`, 0},
		{"store inside a loop keeps the fence after it", deviceFixture + `
func Ok(d *Device, bs [][]byte) {
	d.Fence()
	for _, b := range bs {
		d.WriteAt(4096, b)
	}
	d.Fence()
}
`, 0},
		{"store then panic at a root does not leak", deviceFixture + `
func Crash(d *Device, b []byte) {
	d.WriteAt(4096, b)
	panic("torn")
}
`, 0},
		{"store then os.Exit at a root does not leak", strings.Replace(deviceFixture, "package fx\n", "package fx\nimport \"os\"\n", 1) + `
func Crash(d *Device, b []byte) {
	d.WriteAt(4096, b)
	os.Exit(1)
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, FenceHygiene, "", tc.src), tc.want, "fencehygiene")
		})
	}
}

// inodeFixture mirrors the DRAM/persistent split of nova's Inode: the
// scheduler fields never survive a crash, the index maps are rebuildable.
const inodeFixture = `package fx
type Inode struct {
	Pending int
	Gate    bool
	Mu      int
	index   map[int64]int64
	dirents map[string]int64
	LogHead int64
}
`

func TestRecoveryPurity(t *testing.T) {
	cases := []struct {
		name     string
		filename string
		src      string
		want     int
	}{
		{"banned scheduler field read flagged", "recover.go", inodeFixture + `
func Replay(i *Inode) int { return i.Pending }
`, 1},
		{"index read without rebuild flagged", "recover.go", inodeFixture + `
func Lookup(i *Inode) int64 { return i.index[0] }
`, 1},
		{"index rebuilt first then read accepted", "recover.go", inodeFixture + `
func Rebuild(i *Inode) { i.index = map[int64]int64{} }
func Lookup(i *Inode) int64 { return i.index[0] }
`, 0},
		{"persistent-mirror field read accepted", "recover.go", inodeFixture + `
func Head(i *Inode) int64 { return i.LogHead }
`, 0},
		{"crash.go also in scope", "crash.go", inodeFixture + `
func Replay(i *Inode) bool { return i.Gate }
`, 1},
		{"non-recovery file out of scope", "fixture.go", inodeFixture + `
func Sched(i *Inode) int { return i.Pending }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkgFile(t, "", tc.filename, tc.src)
			diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{RecoveryPurity})
			wantFindings(t, diags, tc.want, "recoverypurity")
		})
	}
}
