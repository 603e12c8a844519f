package nova

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/sim"
)

// WriteAt writes data at off using NOVA's synchronous CoW path: allocate
// fresh blocks, move the data (mover blocks until durable), fence, append
// one write entry per contiguous run, commit the tail, update the index
// and free the replaced blocks.
func (fs *FS) WriteAt(t *caladan.Task, f *File, off int64, data []byte) (int, error) {
	f.assertOpen("WriteAt")
	ino := f.ino
	fs.Charge(t, fs.cpu.Syscall)
	ino.Mu.Lock(t)
	defer ino.Mu.Unlock()
	n, err := fs.writeLocked(t, ino, off, data)
	return n, err
}

// Append writes data at the current end of file.
func (fs *FS) Append(t *caladan.Task, f *File, data []byte) (int, error) {
	f.assertOpen("Append")
	ino := f.ino
	fs.Charge(t, fs.cpu.Syscall)
	ino.Mu.Lock(t)
	defer ino.Mu.Unlock()
	return fs.writeLocked(t, ino, ino.Size, data)
}

// writeLocked is the shared CoW write path; the inode lock is held.
func (fs *FS) writeLocked(t *caladan.Task, ino *Inode, off int64, data []byte) (int, error) {
	if ino.IsDir() {
		return 0, ErrIsDir
	}
	if len(data) == 0 {
		return 0, nil
	}
	prep, runs, err := fs.PrepareWrite(t, ino, off, data)
	if err != nil {
		return 0, err
	}
	// Data movement: blocks until durable.
	fs.mover.WriteData(t, fs, runs, prep.Buf)
	fs.dev.Fence()
	// Metadata: append + commit.
	entries := prep.Entries(nil)
	fs.Charge(t, fs.cpu.MetaAppend+sim.Duration(len(entries)-1)*fs.cpu.MetaAppend/4+fs.cpu.MetaCommit)
	tail := fs.AppendEntries(ino, entries)
	fs.CommitTail(ino, tail)
	fs.FinishWrite(t, ino, entries)
	return len(data), nil
}

// WritePrep carries the precomputed state of an in-progress write between
// PrepareWrite and FinishWrite; EasyIO uses these pieces to reorder the
// stages (§4.2).
type WritePrep struct {
	Ino     *Inode
	FileOff int64
	Data    []byte
	// Buf is the page-aligned CoW image to be moved (head/tail pages
	// merged with existing contents).
	Buf  []byte
	Runs []Run
	Mtim uint64

	// ar is the arena backing Buf, Runs and the entries this prep will
	// build; set by PrepareWrite, defaulted for hand-built preps.
	ar *OpArena
}

// PrepareWrite charges the indexing/allocation cost, allocates CoW blocks
// and builds the page-aligned buffer including read-modify-write of
// partial head/tail pages.
func (fs *FS) PrepareWrite(t *caladan.Task, ino *Inode, off int64, data []byte) (*WritePrep, []Run, error) {
	firstPg := off / BlockSize
	lastPg := (off + int64(len(data)) - 1) / BlockSize
	pages := int(lastPg - firstPg + 1)
	fs.Charge(t, fs.cpu.IndexBase+sim.Duration(pages)*fs.cpu.IndexPerPage+
		fs.cpu.AllocBase+sim.Duration(pages)*fs.cpu.AllocPerPage)
	ar := fs.arenaFor(t)
	ar.used = 0
	runs, ok := fs.alloc.alloc(ar.runs[:0], pages)
	ar.runs = runs
	if !ok {
		return nil, nil, ErrNoSpace
	}
	var buf []byte
	if !fs.opts.EphemeralData {
		buf = ar.bytes(int64(pages) * BlockSize)
		headPad := off - firstPg*BlockSize
		tailEnd := off + int64(len(data))
		if headPad != 0 || tailEnd < (firstPg+1)*BlockSize {
			fs.mergeOld(ino, firstPg, buf[:BlockSize])
		}
		if lastPg != firstPg && tailEnd%BlockSize != 0 {
			fs.mergeOld(ino, lastPg, buf[int64(pages-1)*BlockSize:])
		}
		copy(buf[headPad:], data)
	}
	prep := &ar.prep
	*prep = WritePrep{
		Ino:     ino,
		FileOff: off,
		Data:    data,
		Buf:     buf,
		Runs:    runs,
		Mtim:    fs.Now(),
		ar:      ar,
	}
	return prep, runs, nil
}

// mergeOld read-modify-writes a partial edge page into dst (CoW keeps
// old bytes). Bytes beyond the current EOF are zeroed: a truncated-then-
// extended file must not resurrect stale block contents. Pages with no
// existing block are zero-filled explicitly — dst comes from a reused
// arena buffer, not a fresh allocation.
func (fs *FS) mergeOld(ino *Inode, pg int64, dst []byte) {
	b := ino.BlockFor(pg)
	if b < 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	fs.dev.ReadAt(dst, b)
	if eofIn := ino.Size - pg*BlockSize; eofIn < BlockSize {
		if eofIn < 0 {
			eofIn = 0
		}
		for i := eofIn; i < BlockSize; i++ {
			dst[i] = 0
		}
	}
}

// Entries builds the write log entries for the prepared write, one per
// contiguous run. sn, when non-nil, stamps each entry with the DMA
// descriptor SN assigned to that run (EasyIO's orderless operation).
func (p *WritePrep) Entries(sn func(run int) (engine, ch int, sn uint64)) []*Entry {
	ar := p.ar
	if ar == nil {
		ar = tempArena()
		p.ar = ar
	}
	entries := ar.entries[:0]
	fileOff := p.FileOff
	remaining := int64(len(p.Data))
	// The first run's entry covers from the (possibly unaligned) FileOff.
	for i, r := range p.Runs {
		covered := r.Bytes()
		if i == 0 {
			covered -= p.FileOff % BlockSize
		}
		if covered > remaining {
			covered = remaining
		}
		e := ar.entry()
		*e = Entry{
			Type:     etWrite,
			FileOff:  fileOff,
			Size:     covered,
			BlockOff: r.Off,
			Pages:    int32(r.Pages),
			Mtime:    p.Mtim,
		}
		if sn != nil {
			e.HasSN = true
			eng, ch, s := sn(i)
			e.EngineID = uint8(eng)
			e.ChanID = uint8(ch)
			e.SN = s
		}
		entries = append(entries, e)
		fileOff += covered
		remaining -= covered
	}
	ar.entries = entries
	return entries
}

// FinishWrite applies committed write entries to the DRAM index and frees
// the replaced blocks. Call after CommitTail.
func (fs *FS) FinishWrite(t *caladan.Task, ino *Inode, entries []*Entry) {
	fs.FreeRuns(fs.ApplyWriteEntries(t, ino, entries))
}

// ApplyWriteEntries folds committed write entries into the DRAM index and
// returns the replaced blocks WITHOUT freeing them. EasyIO defers the free
// until the write's DMA lands: recovery of a crashed orderless write must
// be able to fall back to the old blocks (§4.2).
// The returned slice is arena scratch, valid until the task's next
// operation (EasyIO consumes it from the completion callback before the
// operation returns).
func (fs *FS) ApplyWriteEntries(t *caladan.Task, ino *Inode, entries []*Entry) []Run {
	ar := fs.arenaFor(t)
	replaced := ar.replaced[:0]
	for _, e := range entries {
		replaced = ino.applyWriteEntry(e, replaced)
		fs.BytesWritten += e.Size
	}
	fs.OpsWrite++
	ar.replaced = replaced
	return replaced
}

// FreeRuns returns runs to the allocator.
func (fs *FS) FreeRuns(runs []Run) {
	for _, r := range runs {
		fs.alloc.freeRun(r)
	}
}

// CountRead records read-path statistics for EasyIO's bypassing read path.
func (fs *FS) CountRead(n int64) {
	fs.OpsRead++
	fs.BytesRead += n
}

// ReadAt reads up to len(buf) bytes at off. Reads past EOF are truncated;
// holes read as zeros.
func (fs *FS) ReadAt(t *caladan.Task, f *File, off int64, buf []byte) (int, error) {
	f.assertOpen("ReadAt")
	ino := f.ino
	fs.Charge(t, fs.cpu.Syscall)
	ino.Mu.Lock(t)
	defer ino.Mu.Unlock()
	return fs.readLocked(t, ino, off, buf)
}

func (fs *FS) readLocked(t *caladan.Task, ino *Inode, off int64, buf []byte) (int, error) {
	if ino.IsDir() {
		return 0, ErrIsDir
	}
	if off >= ino.Size {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > ino.Size {
		n = ino.Size - off
	}
	if n <= 0 {
		return 0, nil
	}
	pages := perfmodel.Pages(int(n))
	fs.Charge(t, fs.cpu.IndexBase+sim.Duration(pages)*fs.cpu.IndexPerPage+fs.cpu.TimestampUpdate)
	ar := fs.arenaFor(t)
	runs := ino.ExtentRuns(ar.extents[:0], off, n)
	ar.extents = runs
	fs.mover.ReadData(t, fs, runs, ReadPlan{Off: off, N: n, Buf: buf[:n]})
	fs.OpsRead++
	fs.BytesRead += n
	return int(n), nil
}

// ReadPlan tells a mover how to scatter device runs into the user buffer.
type ReadPlan struct {
	Off int64 // file offset of Buf[0]
	N   int64
	Buf []byte
}

// CopyOut performs the functional gather from device runs into the user
// buffer (zero-filling holes).
func (rp ReadPlan) CopyOut(fs *FS, runs []Run) {
	if fs.opts.EphemeralData {
		return
	}
	headPad := rp.Off % BlockSize
	pos := int64(0) // position in the page-aligned view
	for _, r := range runs {
		for pg := 0; pg < r.Pages; pg++ {
			pageStart := pos - headPad // byte in buf where this page begins
			lo, hi := pageStart, pageStart+BlockSize
			if lo < 0 {
				lo = 0
			}
			if hi > rp.N {
				hi = rp.N
			}
			if hi > lo {
				dst := rp.Buf[lo:hi]
				if r.Off < 0 {
					for i := range dst {
						dst[i] = 0
					}
				} else {
					srcOff := r.Off + int64(pg)*BlockSize
					skip := int64(0)
					if pageStart < 0 {
						skip = -pageStart
					}
					fs.dev.ReadAt(dst, srcOff+skip)
				}
			}
			pos += BlockSize
		}
	}
}

// DataBytes sums the device bytes a run list touches (holes excluded).
func DataBytes(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		if r.Off >= 0 {
			n += r.Bytes()
		}
	}
	return n
}

// Truncate sets the file size (extending with a hole or shrinking). It
// appends a SetAttr entry; shrunk blocks are freed after commit.
func (fs *FS) Truncate(t *caladan.Task, f *File, size int64) error {
	f.assertOpen("Truncate")
	ino := f.ino
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.MetaAppend+fs.cpu.MetaCommit)
	ino.Mu.Lock(t)
	defer ino.Mu.Unlock()
	if ino.IsDir() {
		return ErrIsDir
	}
	entries := []*Entry{{Type: etSetAttr, NewSize: size, Mtime: fs.Now()}}
	// Shrinking to mid-page: CoW the boundary block with its tail zeroed,
	// or a later extension would resurrect the stale bytes.
	var boundary *Entry
	if size < ino.Size && size%BlockSize != 0 {
		pg := size / BlockSize
		if old := ino.BlockFor(pg); old >= 0 {
			run, ok := fs.alloc.allocRun(1)
			if !ok {
				return ErrNoSpace
			}
			if !fs.opts.EphemeralData {
				buf := make([]byte, BlockSize)
				fs.dev.ReadAt(buf[:size%BlockSize], old)
				fs.dev.WriteAt(run.Off, buf)
				fs.dev.Fence()
			}
			boundary = &Entry{
				Type: etWrite, FileOff: pg * BlockSize, Size: size % BlockSize,
				BlockOff: run.Off, Pages: 1, Mtime: fs.Now(),
			}
			entries = append(entries, boundary)
		}
	}
	tail := fs.AppendEntries(ino, entries)
	fs.CommitTail(ino, tail)
	if size < ino.Size {
		// Free truncated blocks in ascending page order.
		ino.index.walk((size+BlockSize-1)/BlockSize, func(pg, b int64) {
			fs.alloc.freeRun(Run{Off: b, Pages: 1})
			ino.index.del(pg)
		})
	}
	ino.Size = size
	if boundary != nil {
		for _, old := range ino.applyWriteEntry(boundary, nil) {
			fs.alloc.freeRun(old)
		}
		ino.Size = size // applyWriteEntry never shrinks
	}
	ino.Mtime = fs.Now()
	return nil
}

// Fsync is a no-op: every committed operation is already durable (§2.1,
// DAX with strict persistence). It still charges the syscall cost.
func (fs *FS) Fsync(t *caladan.Task, f *File) error {
	f.assertOpen("Fsync")
	fs.Charge(t, fs.cpu.Syscall)
	return nil
}
