package nova

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/invariants"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// Filesystem errors.
var (
	ErrNotExist = errors.New("nova: no such file or directory")
	ErrExist    = errors.New("nova: file exists")
	ErrIsDir    = errors.New("nova: is a directory")
	ErrNotDir   = errors.New("nova: not a directory")
	ErrNotEmpty = errors.New("nova: directory not empty")
	ErrNoSpace  = errors.New("nova: no space left on device")
	ErrNoInode  = errors.New("nova: inode table full")
)

// Options configures Mkfs and Mount.
type Options struct {
	// NumInodes sizes the inode table (default 65536).
	NumInodes int64
	// CPU overrides the software cost profile (default DefaultCPU).
	CPU *perfmodel.CPU
	// EphemeralData skips functional data-page copies (metadata stays
	// fully functional). Used by large benchmark sweeps where only timing
	// matters; correctness tests leave it off.
	EphemeralData bool
	// ValidateSN is EasyIO's recovery hook (§4.2): during mount, a write
	// entry carrying an SN is kept only if ValidateSN reports the SN
	// durable in the corresponding completion buffer. Nil accepts all.
	ValidateSN func(engineID, chanID int, sn uint64) bool
	// Reserve withholds this many bytes (rounded up to a block) at the
	// top of the device from the filesystem: Mkfs sizes the superblock
	// to dev.Size()-Reserve, so the allocator never touches the tail.
	// The redundancy layer keeps its parity region there. The reserve is
	// crash-persistent (it is baked into the on-disk size), so Mount
	// needs no matching option.
	Reserve int64
}

func (o Options) withDefaults() Options {
	if o.NumInodes == 0 {
		o.NumInodes = 65536
	}
	if o.CPU == nil {
		cpu := perfmodel.DefaultCPU()
		o.CPU = &cpu
	}
	return o
}

// FS is a mounted NOVA filesystem.
type FS struct {
	dev   *pmem.Device
	eng   *sim.Engine
	cpu   perfmodel.CPU
	sb    superblock
	alloc *allocator
	opts  Options

	inodes  []*Inode
	inoHint int

	mover DataMover

	logPageCount int64

	// solo is the shared arena for nil-task functional contexts (which
	// never yield mid-operation); enc is AppendEntries' entry-encoding
	// scratch, safe at FS level because nothing yields between encoding
	// an entry and writing it to the device.
	solo *OpArena
	enc  []byte

	// Stats the benches report.
	OpsRead, OpsWrite       int64
	BytesRead, BytesWritten int64
}

// Mkfs formats the device: superblock, empty inode table, root directory.
func Mkfs(dev *pmem.Device, opts Options) error {
	opts = opts.withDefaults()
	reserve := (opts.Reserve + BlockSize - 1) &^ (BlockSize - 1)
	sb := superblock{
		magic:     Magic,
		size:      dev.Size() - reserve,
		numInodes: opts.NumInodes,
		dataOff:   dataOffFor(opts.NumInodes),
	}
	if sb.dataOff+16*BlockSize > sb.size {
		return ErrNoSpace
	}
	// Invalidate the journal and all inode slots before publishing the
	// superblock: if power fails mid-format, the magic must not be
	// durable over a half-initialized table.
	dev.WriteAt(JournalOff, make([]byte, 40))
	empty := make([]byte, InodeSlotSize)
	for i := int64(0); i < opts.NumInodes; i++ {
		dev.WriteAt(InodeTableOff+i*InodeSlotSize, empty)
	}
	// Root directory: first data block is its log page.
	root := diskInode{
		valid:   1,
		kind:    KindDir,
		nlink:   2,
		logHead: sb.dataOff,
		logTail: sb.dataOff,
	}
	dev.WriteAt(InodeTableOff+RootIno*InodeSlotSize, root.encode())
	dev.Fence()
	// Only now that the formatted metadata is durable may the superblock
	// (and its magic) commit the filesystem's existence.
	dev.WriteAt(SuperOff, sb.encode())
	dev.Fence()
	return nil
}

func dataOffFor(numInodes int64) int64 {
	end := InodeTableOff + numInodes*InodeSlotSize
	return (end + BlockSize - 1) &^ (BlockSize - 1)
}

// Mount attaches to a formatted device, replaying logs to rebuild the DRAM
// index, directory maps and allocator, and performing crash recovery
// (journal rollback, uncommitted tail discard, EasyIO SN validation).
func Mount(dev *pmem.Device, mover DataMover, opts Options) (*FS, error) {
	opts = opts.withDefaults()
	sbBuf := make([]byte, 32)
	dev.ReadAt(sbBuf, SuperOff)
	sb, err := decodeSuper(sbBuf)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		dev:    dev,
		eng:    dev.Engine(),
		cpu:    *opts.CPU,
		sb:     sb,
		alloc:  newAllocator(sb.dataOff, sb.size),
		opts:   opts,
		inodes: make([]*Inode, sb.numInodes),
		mover:  mover,
	}
	if err := fs.recover(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Device returns the underlying slow-memory device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// Size returns the filesystem's on-disk size in bytes — dev.Size() minus
// any Mkfs-time Reserve. Bytes at and above Size belong to whoever made
// the reservation (the redundancy parity region).
func (fs *FS) Size() int64 { return fs.sb.size }

// CPUCosts returns the software cost profile in effect.
func (fs *FS) CPUCosts() perfmodel.CPU { return fs.cpu }

// Ephemeral reports whether functional data copies are disabled.
func (fs *FS) Ephemeral() bool { return fs.opts.EphemeralData }

// Mover returns the data mover in use.
func (fs *FS) Mover() DataMover { return fs.mover }

// SetMover swaps the data mover (used by EasyIO, which wraps the FS).
func (fs *FS) SetMover(m DataMover) { fs.mover = m }

// Now returns the current virtual time as an mtime value.
func (fs *FS) Now() uint64 { return uint64(fs.eng.Now()) }

// Charge consumes d of CPU on the task's core (no-op for nil tasks, which
// model mount-time or test-harness callers outside the runtime).
func (fs *FS) Charge(t *caladan.Task, d sim.Duration) {
	if t != nil {
		t.Compute(d)
	}
}

// ---------------------------------------------------------------------------
// Inode table management.

func (fs *FS) allocInode(kind byte) (*Inode, error) {
	n := len(fs.inodes)
	for k := 0; k < n; k++ {
		num := (fs.inoHint + k) % n
		if num < 2 { // 0 invalid, 1 root
			continue
		}
		if fs.inodes[num] == nil {
			fs.inoHint = (num + 1) % n
			logPage, ok := fs.alloc.allocRun(1)
			if !ok || logPage.Pages != 1 {
				return nil, ErrNoSpace
			}
			fs.logPageCount++
			ino := &Inode{
				fs:      fs,
				Num:     uint32(num),
				Kind:    kind,
				Nlink:   1,
				Mtime:   fs.Now(),
				logHead: logPage.Off,
				logTail: logPage.Off,
			}
			if kind == KindDir {
				ino.Nlink = 2
				ino.dirents = make(map[string]uint32)
			} else {
				ino.index = &blockIndex{}
			}
			fs.inodes[num] = ino
			ino.writeSlot()
			fs.dev.Fence()
			return ino, nil
		}
	}
	return nil, ErrNoInode
}

// dropInode invalidates the slot and frees the inode's storage. Caller
// guarantees no directory references remain.
func (fs *FS) dropInode(ino *Inode) {
	fs.dev.WriteAt(ino.slotOff(), []byte{0})
	fs.dev.Fence()
	// Free data blocks in block order (the index walks in page order), so
	// the free sequence is deterministic.
	if ino.index != nil {
		seen := map[int64]bool{}
		blocks := make([]int64, 0, ino.index.len())
		ino.index.walk(0, func(_, b int64) {
			if !seen[b] {
				seen[b] = true
				blocks = append(blocks, b)
			}
		})
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, b := range blocks {
			fs.alloc.freeRun(Run{Off: b, Pages: 1})
		}
	}
	// Free the log page chain.
	pages := fs.walkLog(ino.logHead, ino.logTail, func(Entry) {})
	for _, p := range pages {
		fs.alloc.freeRun(Run{Off: p, Pages: 1})
		fs.logPageCount--
	}
	fs.inodes[ino.Num] = nil
}

// Inode returns inode num, or nil.
func (fs *FS) Inode(num uint32) *Inode {
	if int64(num) >= int64(len(fs.inodes)) {
		return nil
	}
	return fs.inodes[num]
}

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.inodes[RootIno] }

// FreeBlocks reports the allocator's free block count.
func (fs *FS) FreeBlocks() int64 { return fs.alloc.FreeBlocks() }

// ---------------------------------------------------------------------------
// Path resolution and namespace operations.

// splitPath returns the parent directory path and the final component.
func splitPath(path string) (dir, name string) {
	path = strings.TrimRight(path, "/")
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "/", path
	}
	if i == 0 {
		return "/", path[1:]
	}
	return path[:i], path[i+1:]
}

// namei resolves a path to an inode.
func (fs *FS) namei(path string) (*Inode, error) {
	cur := fs.Root()
	for _, comp := range strings.Split(path, "/") {
		if comp == "" || comp == "." {
			continue
		}
		if !cur.IsDir() {
			return nil, ErrNotDir
		}
		num, ok := cur.dirents[comp]
		if !ok {
			return nil, ErrNotExist
		}
		cur = fs.inodes[num]
		if cur == nil {
			return nil, ErrNotExist
		}
	}
	return cur, nil
}

// lookupDir resolves the parent directory of path and validates the leaf
// name.
func (fs *FS) lookupDir(path string) (*Inode, string, error) {
	dirPath, name := splitPath(path)
	if name == "" || len(name) > MaxNameLen {
		return nil, "", ErrNotExist
	}
	dir, err := fs.namei(dirPath)
	if err != nil {
		return nil, "", err
	}
	if !dir.IsDir() {
		return nil, "", ErrNotDir
	}
	return dir, name, nil
}

// File is an open handle. Handles follow the open → use → Close
// typestate protocol the handlestate analyzer enforces: every data-path
// method requires an open handle, Close is called exactly once, and
// owners close (or hand off) the handle on every path, error arms
// included. Under -tags easyio_invariants, use-after-close panics.
type File struct {
	fs     *FS
	ino    *Inode
	closed bool
}

// Close retires the handle. Handles are simulation-side bookkeeping (no
// kernel fd table), so Close charges nothing and cannot fail — it
// exists to make handle lifetime explicit and machine-checkable.
func (f *File) Close() {
	f.assertOpen("Close")
	f.closed = true
}

// assertOpen panics on use-after-close when runtime invariants are
// compiled in (-tags easyio_invariants); production builds eliminate
// the check entirely (invariants.Enabled is a constant).
func (f *File) assertOpen(op string) {
	if invariants.Enabled && f.closed {
		panic("nova: " + op + " on closed file handle")
	}
}

// Inode returns the file's inode.
func (f *File) Inode() *Inode { return f.ino }

// FS returns the owning filesystem.
func (f *File) FS() *FS { return f.fs }

// Size returns the current file size.
func (f *File) Size() int64 {
	f.assertOpen("Size")
	return f.ino.Size
}

// Create makes a new regular file. It fails with ErrExist if the name is
// taken.
func (fs *FS) Create(t *caladan.Task, path string) (*File, error) {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.MetaAppend+fs.cpu.MetaCommit+fs.cpu.AllocBase)
	dir, name, err := fs.lookupDir(path)
	if err != nil {
		return nil, err
	}
	dir.Mu.Lock(t)
	defer dir.Mu.Unlock()
	if _, ok := dir.dirents[name]; ok {
		return nil, ErrExist
	}
	ino, err := fs.allocInode(KindFile)
	if err != nil {
		return nil, err
	}
	tail := fs.AppendEntries(dir, []*Entry{{Type: etDentryAdd, Ino: ino.Num, Name: name, Mtime: fs.Now()}})
	fs.CommitTail(dir, tail)
	dir.dirents[name] = ino.Num
	return &File{fs: fs, ino: ino}, nil
}

// Mkdir makes a new directory.
func (fs *FS) Mkdir(t *caladan.Task, path string) error {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.MetaAppend+fs.cpu.MetaCommit+fs.cpu.AllocBase)
	dir, name, err := fs.lookupDir(path)
	if err != nil {
		return err
	}
	dir.Mu.Lock(t)
	defer dir.Mu.Unlock()
	if _, ok := dir.dirents[name]; ok {
		return ErrExist
	}
	ino, err := fs.allocInode(KindDir)
	if err != nil {
		return err
	}
	tail := fs.AppendEntries(dir, []*Entry{{Type: etDentryAdd, Ino: ino.Num, Name: name, Mtime: fs.Now()}})
	fs.CommitTail(dir, tail)
	dir.dirents[name] = ino.Num
	return nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(t *caladan.Task, path string) (*File, error) {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.IndexBase)
	ino, err := fs.namei(path)
	if err != nil {
		return nil, err
	}
	if ino.IsDir() {
		return nil, ErrIsDir
	}
	return &File{fs: fs, ino: ino}, nil
}

// OpenOrCreate opens path, creating it if absent.
func (fs *FS) OpenOrCreate(t *caladan.Task, path string) (*File, error) {
	f, err := fs.Open(t, path)
	if err == ErrNotExist {
		f, err = fs.Create(t, path)
		if err == ErrExist {
			return fs.Open(t, path)
		}
	}
	return f, err
}

// Unlink removes a directory entry; the file is dropped when its link
// count reaches zero.
func (fs *FS) Unlink(t *caladan.Task, path string) error {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.MetaAppend+fs.cpu.MetaCommit)
	dir, name, err := fs.lookupDir(path)
	if err != nil {
		return err
	}
	dir.Mu.Lock(t)
	defer dir.Mu.Unlock()
	num, ok := dir.dirents[name]
	if !ok {
		return ErrNotExist
	}
	target := fs.inodes[num]
	if target.IsDir() {
		return ErrIsDir
	}
	target.Mu.Lock(t) //easyio:allow lockorder (hierarchical order within the shared-guarded Inode.Mu class: the parent directory's lock always precedes its non-directory child's — the IsDir guard above rules out dir/dir nesting, so no inverse pair can form)
	defer target.Mu.Unlock()
	tail := fs.AppendEntries(dir, []*Entry{{Type: etDentryDel, Ino: num, Name: name, Mtime: fs.Now()}})
	fs.CommitTail(dir, tail)
	delete(dir.dirents, name)
	target.Nlink--
	if target.Nlink == 0 {
		fs.dropInode(target)
	} else {
		ttail := fs.AppendEntries(target, []*Entry{{Type: etLinkChange, LinkDelta: -1, Mtime: fs.Now()}})
		fs.CommitTail(target, ttail)
	}
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(t *caladan.Task, path string) error {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.MetaAppend+fs.cpu.MetaCommit)
	dir, name, err := fs.lookupDir(path)
	if err != nil {
		return err
	}
	dir.Mu.Lock(t)
	defer dir.Mu.Unlock()
	num, ok := dir.dirents[name]
	if !ok {
		return ErrNotExist
	}
	target := fs.inodes[num]
	if !target.IsDir() {
		return ErrNotDir
	}
	if len(target.dirents) != 0 {
		return ErrNotEmpty
	}
	tail := fs.AppendEntries(dir, []*Entry{{Type: etDentryDel, Ino: num, Name: name, Mtime: fs.Now()}})
	fs.CommitTail(dir, tail)
	delete(dir.dirents, name)
	fs.dropInode(target)
	return nil
}

// Link creates a hard link newpath -> oldpath, atomically via the journal.
func (fs *FS) Link(t *caladan.Task, oldpath, newpath string) error {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.Journal+2*(fs.cpu.MetaAppend+fs.cpu.MetaCommit))
	target, err := fs.namei(oldpath)
	if err != nil {
		return err
	}
	if target.IsDir() {
		return ErrIsDir
	}
	dir, name, err := fs.lookupDir(newpath)
	if err != nil {
		return err
	}
	lockPair(t, dir, target)
	defer unlockPair(dir, target)
	if _, ok := dir.dirents[name]; ok {
		return ErrExist
	}
	fs.journalBegin(dir, target)
	dtail := fs.AppendEntries(dir, []*Entry{{Type: etDentryAdd, Ino: target.Num, Name: name, Mtime: fs.Now()}})
	ttail := fs.AppendEntries(target, []*Entry{{Type: etLinkChange, LinkDelta: 1, Mtime: fs.Now()}})
	fs.CommitTail(dir, dtail)
	fs.CommitTail(target, ttail)
	fs.journalEnd()
	dir.dirents[name] = target.Num
	target.Nlink++
	return nil
}

// Rename moves oldpath to newpath, replacing any existing file, atomically
// via the journal (NOVA's two-log update).
func (fs *FS) Rename(t *caladan.Task, oldpath, newpath string) error {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.Journal+2*(fs.cpu.MetaAppend+fs.cpu.MetaCommit))
	srcDir, srcName, err := fs.lookupDir(oldpath)
	if err != nil {
		return err
	}
	dstDir, dstName, err := fs.lookupDir(newpath)
	if err != nil {
		return err
	}
	lockPair(t, srcDir, dstDir)
	defer unlockPair(srcDir, dstDir)
	num, ok := srcDir.dirents[srcName]
	if !ok {
		return ErrNotExist
	}
	var replaced *Inode
	if oldNum, ok := dstDir.dirents[dstName]; ok {
		if oldNum == num {
			return nil
		}
		replaced = fs.inodes[oldNum]
		if replaced.IsDir() {
			return ErrIsDir
		}
	}
	fs.journalBegin(srcDir, dstDir)
	now := fs.Now()
	var dstEntries []*Entry
	if replaced != nil {
		dstEntries = append(dstEntries, &Entry{Type: etDentryDel, Ino: replaced.Num, Name: dstName, Mtime: now})
	}
	dstEntries = append(dstEntries, &Entry{Type: etDentryAdd, Ino: num, Name: dstName, Mtime: now})
	if srcDir == dstDir {
		all := append([]*Entry{{Type: etDentryDel, Ino: num, Name: srcName, Mtime: now}}, dstEntries...)
		tail := fs.AppendEntries(srcDir, all)
		fs.CommitTail(srcDir, tail)
	} else {
		stail := fs.AppendEntries(srcDir, []*Entry{{Type: etDentryDel, Ino: num, Name: srcName, Mtime: now}})
		dtail := fs.AppendEntries(dstDir, dstEntries)
		fs.CommitTail(srcDir, stail)
		fs.CommitTail(dstDir, dtail)
	}
	fs.journalEnd()
	delete(srcDir.dirents, srcName)
	dstDir.dirents[dstName] = num
	if replaced != nil {
		replaced.Nlink--
		if replaced.Nlink == 0 {
			fs.dropInode(replaced)
		}
	}
	return nil
}

// lockPair acquires two inode locks in ino-number order (deadlock-free).
func lockPair(t *caladan.Task, a, b *Inode) {
	if a == b {
		a.Mu.Lock(t)
		return
	}
	if a.Num > b.Num {
		a, b = b, a
	}
	a.Mu.Lock(t)
	b.Mu.Lock(t)
}

func unlockPair(a, b *Inode) {
	if a == b {
		a.Mu.Unlock()
		return
	}
	a.Mu.Unlock()
	b.Mu.Unlock()
}

// journalBegin persists the pre-operation tails of both inodes.
func (fs *FS) journalBegin(a, b *Inode) {
	j := journalRec{valid: 1, inoA: a.Num, inoB: b.Num, tailA: a.logTail, tailB: b.logTail}
	fs.dev.WriteAt(JournalOff, j.encode())
	fs.dev.Fence()
}

// journalEnd invalidates the journal after both commits.
func (fs *FS) journalEnd() {
	fs.dev.WriteAt(JournalOff, []byte{0})
	fs.dev.Fence()
}

// Stat describes an inode.
type Stat struct {
	Ino   uint32
	Kind  byte
	Size  int64
	Mtime uint64
	Nlink uint32
}

// Stat returns metadata for path.
func (fs *FS) Stat(t *caladan.Task, path string) (Stat, error) {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.IndexBase)
	ino, err := fs.namei(path)
	if err != nil {
		return Stat{}, err
	}
	return Stat{Ino: ino.Num, Kind: ino.Kind, Size: ino.Size, Mtime: ino.Mtime, Nlink: ino.Nlink}, nil
}

// Readdir lists a directory's entry names in sorted order.
func (fs *FS) Readdir(t *caladan.Task, path string) ([]string, error) {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.IndexBase)
	ino, err := fs.namei(path)
	if err != nil {
		return nil, err
	}
	if !ino.IsDir() {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(ino.dirents))
	for name := range ino.dirents {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// String identifies the filesystem for diagnostics.
func (fs *FS) String() string {
	return fmt.Sprintf("nova(size=%d, inodes=%d)", fs.sb.size, fs.sb.numInodes)
}
