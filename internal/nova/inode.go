package nova

import (
	"github.com/easyio-sim/easyio/internal/caladan"
)

// Inode is the DRAM representation of one file or directory, mirroring the
// persistent inode slot plus the index rebuilt from the log.
type Inode struct {
	fs *FS

	Num   uint32
	Kind  byte
	Size  int64
	Mtime uint64
	Nlink uint32

	logHead int64
	logTail int64

	// index maps file page number -> data block device offset (files;
	// nil for directories).
	index *blockIndex
	// dirents maps name -> child ino (directories).
	dirents map[string]uint32

	// Mu is the level-1 per-inode lock (held across an operation in the
	// baselines; released at metadata commit in EasyIO).
	Mu caladan.ULock

	// Pending and Gate implement EasyIO's level-2 lock (§4.3): Pending
	// counts the most recent write's in-flight DMA descriptors; conflicting
	// operations park on Gate until the data lands (the runtime's analogue
	// of comparing the block mapping's SN with the completion buffer).
	Pending int
	Gate    caladan.WaitQueue
}

// slotOff returns the inode's table slot offset on the device.
func (ino *Inode) slotOff() int64 {
	return InodeTableOff + int64(ino.Num)*InodeSlotSize
}

// LogTail returns the committed log tail (device offset).
func (ino *Inode) LogTail() int64 { return ino.logTail }

// IsDir reports whether the inode is a directory.
func (ino *Inode) IsDir() bool { return ino.Kind == KindDir }

// BlockFor returns the data block device offset backing file page pg, or
// -1 if the page is a hole.
func (ino *Inode) BlockFor(pg int64) int64 {
	if b := ino.index.get(pg); b != 0 {
		return b
	}
	return -1
}

// writeSlot persists the DRAM inode header to its table slot.
func (ino *Inode) writeSlot() {
	di := diskInode{
		valid:   1,
		kind:    ino.Kind,
		nlink:   ino.Nlink,
		size:    ino.Size,
		mtime:   ino.Mtime,
		logHead: ino.logHead,
		logTail: ino.logTail,
	}
	ino.fs.dev.WriteAt(ino.slotOff(), di.encode())
}

// AppendEntries serializes entries into the inode's log (allocating and
// chaining log pages as needed) and returns the tail value that commits
// them. The entries are persisted (fenced) but NOT committed: callers must
// invoke CommitTail — in EasyIO this is what lets metadata persist while
// the data DMA is still in flight.
func (fs *FS) AppendEntries(ino *Inode, entries []*Entry) int64 {
	tail := ino.logTail
	for _, e := range entries {
		buf := e.appendTo(fs.enc[:0])
		fs.enc = buf
		pageStart := tail &^ (BlockSize - 1)
		inPage := tail - pageStart
		if inPage+int64(len(buf)) > logPageDataSize {
			// Mark end-of-page so log walks skip the padding, then chain
			// a fresh log page.
			if inPage < logPageDataSize {
				fs.dev.WriteAt(tail, endOfPageMark[:])
			}
			next, ok := fs.alloc.allocRun(1)
			if !ok || next.Pages != 1 {
				panic("nova: out of space for log page")
			}
			fs.logPageCount++
			fs.dev.Write8(pageStart+logPageDataSize, uint64(next.Off))
			tail = next.Off
		}
		fs.dev.WriteAt(tail, buf)
		tail += int64(len(buf))
	}
	fs.dev.Fence()
	return tail
}

// CommitTail atomically commits previously appended entries by advancing
// the persistent tail pointer (one 8-byte store + fence; NOVA's commit
// point).
func (fs *FS) CommitTail(ino *Inode, newTail int64) {
	fs.dev.Write8(ino.slotOff()+36, uint64(newTail))
	fs.dev.Fence()
	ino.logTail = newTail
}

// walkLog decodes the committed entries of a log chain [head, tail).
// visit is called for each entry; pages collects the chain.
func (fs *FS) walkLog(head, tail int64, visit func(Entry)) (pages []int64) {
	return fs.walkLogPositions(head, tail, func(e Entry, _, _ int64) bool {
		visit(e)
		return true
	})
}

// endOfPageMark is the zero type byte AppendEntries stamps before
// chaining a fresh log page (a package var so the hot path has no slice
// literal to allocate; WriteAt only reads it).
var endOfPageMark = [1]byte{0}

// applyWriteEntry updates the DRAM index for a (committed or in-commit)
// write entry, appending the replaced blocks onto dst so the caller can
// free them after commit.
func (ino *Inode) applyWriteEntry(e *Entry, dst []Run) []Run {
	replaced := dst
	firstPg := e.FileOff / BlockSize
	for i := int64(0); i < int64(e.Pages); i++ {
		if old := ino.index.set(firstPg+i, e.BlockOff+i*BlockSize); old != 0 {
			replaced = appendRun(replaced, old)
		}
	}
	if end := e.FileOff + e.Size; end > ino.Size {
		ino.Size = end
	}
	ino.Mtime = e.Mtime
	return replaced
}

// appendRun coalesces a single block into a run list.
func appendRun(runs []Run, blockOff int64) []Run {
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		if last.Off+last.Bytes() == blockOff {
			last.Pages++
			return runs
		}
	}
	return append(runs, Run{Off: blockOff, Pages: 1})
}

// ExtentRuns returns the device runs backing the byte range [off, off+n)
// of the file, coalescing adjacent blocks, appended onto dst (pass a
// reusable buffer's [:0] to keep the read path allocation-free). Holes
// are returned as runs with Off == -1 (readers must zero-fill).
// ExtentRuns is exported for EasyIO's lock-free read path.
func (ino *Inode) ExtentRuns(dst []Run, off, n int64) []Run {
	if n <= 0 {
		return dst
	}
	runs := dst
	firstPg := off / BlockSize
	lastPg := (off + n - 1) / BlockSize
	for pg := firstPg; pg <= lastPg; pg++ {
		b := ino.index.get(pg)
		if b == 0 {
			b = -1
		}
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if b != -1 && last.Off != -1 && last.Off+last.Bytes() == b {
				last.Pages++
				continue
			}
			if b == -1 && last.Off == -1 {
				last.Pages++
				continue
			}
		}
		runs = append(runs, Run{Off: b, Pages: 1})
	}
	return runs
}
