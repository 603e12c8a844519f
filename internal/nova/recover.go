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
	// the logs of valid slots. Replay writes only the replayed inode's own
	// slot, so the rest of the page buffer stays current.
	page := make([]byte, BlockSize)
	logPages := make(map[uint32][]int64)
	for base := int64(0); base < fs.sb.numInodes; base += slotsPerPage {
		slots := min(slotsPerPage, fs.sb.numInodes-base)
		fs.dev.ReadAt(page[:slots*InodeSlotSize], InodeTableOff+base*InodeSlotSize)
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
			fs.inodes[num] = ino
			logPages[ino.Num] = fs.replayLog(ino)
		}
	}
	if fs.inodes[RootIno] == nil {
		return ErrNotExist
	}

	// Step 3: orphan sweep (root is always reachable).
	reachable := map[uint32]bool{RootIno: true}
	fs.markReachable(fs.inodes[RootIno], reachable)
	for num := int64(2); num < fs.sb.numInodes; num++ {
		if ino := fs.inodes[num]; ino != nil && !reachable[uint32(num)] {
			fs.dev.WriteAt(ino.slotOff(), []byte{0})
			fs.inodes[num] = nil
			delete(logPages, uint32(num))
		}
	}
	fs.dev.Fence()

	// Step 4: allocator rebuild, in sorted inode order so the bitmap is
	// reconstructed deterministically (map order would not be).
	logInos := make([]uint32, 0, len(logPages))
	for num := range logPages {
		logInos = append(logInos, num)
	}
	sort.Slice(logInos, func(i, j int) bool { return logInos[i] < logInos[j] })
	for _, num := range logInos {
		for _, p := range logPages[num] {
			fs.alloc.markUsed(p, 1)
			fs.logPageCount++
		}
	}
	for num := int64(1); num < fs.sb.numInodes; num++ {
		ino := fs.inodes[num]
		if ino == nil || ino.index == nil {
			continue
		}
		blocks := make([]int64, 0, ino.index.len())
		ino.index.walk(0, func(_, b int64) {
			blocks = append(blocks, b)
		})
		// Sorted so the rebuilt allocator bitmap is filled in block order.
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, b := range blocks {
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
		child := fs.inodes[num]
		if child == nil || seen[num] {
			continue
		}
		seen[num] = true
		if child.IsDir() {
			fs.markReachable(child, seen)
		}
	}
}
