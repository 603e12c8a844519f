package nova

import "sort"

// Mount-time recovery. Order matters:
//
//  1. Journal rollback: an in-flight two-inode operation (rename/link) is
//     undone by restoring both persistent log tails.
//  2. Log replay: each valid inode's committed entries rebuild the DRAM
//     index / directory map. Write entries carrying an SN are validated
//     against the DMA completion buffers (EasyIO §4.2): an entry whose SN
//     is not yet durable was committed ahead of its data DMA — the data
//     may be torn — so the entry and everything after it is discarded and
//     the persistent tail is rolled back.
//  3. Orphan sweep: inodes unreachable from the root (created but never
//     linked, or unlinked but not dropped before the crash) are freed.
//  4. Allocator rebuild: blocks referenced by surviving logs and indexes
//     are marked used; everything else is free.

// recover rebuilds all DRAM state from the device.
func (fs *FS) recover() error {
	// Step 1: journal rollback.
	jb := make([]byte, 40)
	fs.dev.ReadAt(jb, JournalOff)
	j := decodeJournal(jb)
	if j.valid == 1 {
		fs.rollbackTail(j.inoA, j.tailA)
		fs.rollbackTail(j.inoB, j.tailB)
		fs.dev.WriteAt(JournalOff, []byte{0})
		fs.dev.Fence()
	}

	// Step 2: scan the inode table a page of slots at a time and replay
	// the logs of valid slots. A page with no backing storage reads as
	// zeros and holds no valid slot, so only present pages are read.
	// Replay writes only the replayed inode's own slot, so the rest of the
	// page buffer stays current. live collects the valid inodes and their
	// log pages in ascending inode order; steps 3 and 4 visit only them.
	type liveInode struct {
		ino      *Inode
		logPages []int64
	}
	page := make([]byte, BlockSize)
	var live []liveInode
	for base := int64(0); base < fs.sb.numInodes; base += slotsPerPage {
		slots := min(slotsPerPage, fs.sb.numInodes-base)
		off := InodeTableOff + base*InodeSlotSize
		if fs.dev.Absent(off, int(slots*InodeSlotSize)) {
			continue
		}
		fs.dev.ReadAt(page[:slots*InodeSlotSize], off)
		for k := int64(0); k < slots; k++ {
			num, slot := base+k, page[k*InodeSlotSize:(k+1)*InodeSlotSize]
			if num == 0 || slot[0] != 1 {
				continue
			}
			di := decodeInode(slot)
			ino := &Inode{
				fs:      fs,
				Num:     uint32(num),
				Kind:    di.kind,
				Nlink:   di.nlink,
				Mtime:   di.mtime,
				logHead: di.logHead,
				logTail: di.logTail,
			}
			if di.kind == KindDir {
				ino.dirents = make(map[string]uint32)
			} else {
				ino.index = &blockIndex{}
			}
			fs.inodes.set(ino.Num, ino)
			live = append(live, liveInode{ino, fs.replayLog(ino)})
		}
	}
	if fs.inodes.get(RootIno) == nil {
		return ErrNotExist
	}

	// Step 3: orphan sweep (root is always reachable), in ascending inode
	// order; the survivors keep that order.
	reachable := map[uint32]bool{RootIno: true}
	fs.markReachable(fs.inodes.get(RootIno), reachable)
	kept := live[:0]
	for _, l := range live {
		if l.ino.Num >= 2 && !reachable[l.ino.Num] {
			fs.dev.WriteAt(l.ino.slotOff(), []byte{0})
			fs.inodes.set(l.ino.Num, nil)
			continue
		}
		kept = append(kept, l)
	}
	live = kept
	fs.dev.Fence()

	// Step 4: allocator rebuild, in ascending inode order so the bitmap is
	// reconstructed deterministically: every log page first, then every
	// indexed data block.
	for _, l := range live {
		for _, p := range l.logPages {
			fs.alloc.markUsed(p, 1)
			fs.logPageCount++
		}
	}
	for _, l := range live {
		// In block order, so the rebuilt bitmap is filled deterministically.
		for _, b := range fs.indexedBlocks(l.ino) {
			fs.alloc.markUsed(b, 1)
		}
	}
	return nil
}

// rollbackTail restores an inode slot's persistent tail pointer.
func (fs *FS) rollbackTail(ino uint32, tail int64) {
	if int64(ino) >= fs.sb.numInodes {
		return
	}
	off := InodeTableOff + int64(ino)*InodeSlotSize
	b := make([]byte, 1)
	fs.dev.ReadAt(b, off)
	if b[0] != 1 {
		return
	}
	fs.dev.Write8(off+36, uint64(tail))
	fs.dev.Fence()
}

// replayLog applies an inode's committed entries, enforcing SN validation,
// and returns the log pages in use.
func (fs *FS) replayLog(ino *Inode) []int64 {
	validate := fs.opts.ValidateSN
	truncated := false
	var truncateAt int64
	pages := fs.walkLogPositions(ino.logHead, ino.logTail, func(e Entry, entryPos int64, next int64) bool {
		if e.Type == etWrite && e.HasSN && validate != nil &&
			!validate(int(e.EngineID), int(e.ChanID), e.SN) {
			// Committed metadata whose data DMA never landed: discard this
			// entry and everything after it (§4.2 recovery rule).
			truncated = true
			truncateAt = entryPos
			return false
		}
		fs.applyRecovered(ino, e)
		return true
	})
	if truncated {
		fs.CommitTail(ino, truncateAt)
	}
	return pages
}

// applyRecovered folds one committed entry into DRAM state.
func (fs *FS) applyRecovered(ino *Inode, e Entry) {
	switch e.Type {
	case etWrite:
		if ino.index == nil {
			return
		}
		ecopy := e
		ino.applyWriteEntry(&ecopy, nil) // replaced blocks implicitly freed by rebuild
	case etSetAttr:
		if e.NewSize < ino.Size && ino.index != nil {
			ino.index.walk((e.NewSize+BlockSize-1)/BlockSize, func(pg, _ int64) {
				ino.index.del(pg)
			})
		}
		ino.Size = e.NewSize
		ino.Mtime = e.Mtime
	case etDentryAdd:
		if ino.dirents != nil {
			ino.dirents[e.Name] = e.Ino
		}
	case etDentryDel:
		if ino.dirents != nil {
			delete(ino.dirents, e.Name)
		}
	case etLinkChange:
		ino.Nlink = uint32(int32(ino.Nlink) + e.LinkDelta)
	}
}

// walkLogPositions is walkLog with entry positions exposed; visit returns
// false to stop.
func (fs *FS) walkLogPositions(head, tail int64, visit func(e Entry, pos, next int64) bool) (pages []int64) {
	if head == 0 {
		return nil
	}
	pos := head
	buf := make([]byte, BlockSize)
	pageStart := pos &^ (BlockSize - 1)
	pages = append(pages, pageStart)
	fs.dev.ReadAt(buf, pageStart)
	for pos != tail {
		inPage := pos - pageStart
		if inPage >= logPageDataSize || buf[inPage] == 0 {
			next := int64(get8(buf[logPageDataSize:]))
			if next == 0 {
				break
			}
			pageStart = next
			pages = append(pages, pageStart)
			fs.dev.ReadAt(buf, pageStart)
			pos = pageStart
			continue
		}
		e, n, ok := decodeEntry(buf[inPage:logPageDataSize])
		if !ok {
			break
		}
		if !visit(e, pos, pos+int64(n)) {
			break
		}
		pos += int64(n)
	}
	return pages
}

// markReachable walks the directory tree marking every inode reachable
// from dir.
func (fs *FS) markReachable(dir *Inode, seen map[uint32]bool) {
	// Traverse in sorted dentry-name order so the reachability walk (and
	// anything derived from its visit order) is deterministic.
	names := make([]string, 0, len(dir.dirents))
	for name := range dir.dirents {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		num := dir.dirents[name]
		child := fs.inodes.get(num)
		if child == nil || seen[num] {
			continue
		}
		seen[num] = true
		if child.IsDir() {
			fs.markReachable(child, seen)
		}
	}
}
