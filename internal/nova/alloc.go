package nova

import "math/bits"

// Run is a contiguous extent of data blocks on the device.
type Run struct {
	Off   int64 // device byte offset, BlockSize-aligned
	Pages int
}

// Bytes returns the run length in bytes.
func (r Run) Bytes() int64 { return int64(r.Pages) * BlockSize }

// allocator is the DRAM free-block tracker. Like NOVA's, it is volatile:
// the persistent truth is the set of blocks reachable from inode logs, and
// mount rebuilds it.
type allocator struct {
	dataOff int64
	nblocks int64
	used    []uint64 // bit i%64 of word i/64 is set while block i is allocated
	hint    int64
	free    int64
}

func newAllocator(dataOff, devSize int64) *allocator {
	n := (devSize - dataOff) / BlockSize
	return &allocator{
		dataOff: dataOff,
		nblocks: n,
		used:    make([]uint64, (n+63)/64),
		free:    n,
	}
}

// FreeBlocks reports the number of unallocated blocks.
func (a *allocator) FreeBlocks() int64 { return a.free }

// allocRun finds one contiguous run of up to want pages (first fit from
// the rotating hint, wrapping to block 0; a run itself never wraps). ok is
// false when the device is full.
func (a *allocator) allocRun(want int) (Run, bool) {
	if a.free == 0 || want <= 0 {
		return Run{}, false
	}
	i := a.firstFree(a.hint)
	if i < 0 {
		i = a.firstFree(0) // a.free > 0, so this hits
	}
	// Extend the run over the free bits after i.
	lim := min(a.nblocks, i+int64(want))
	end := i
	for end < lim {
		if rest := a.used[end>>6] >> (end & 63); rest != 0 {
			end += int64(bits.TrailingZeros64(rest))
			break
		}
		end += 64 - end&63
	}
	end = min(end, lim)
	for j := i; j < end; {
		w, m, next := wordMask(j, end)
		a.used[w] |= m
		j = next
	}
	n := end - i
	a.free -= n
	a.hint = end % a.nblocks
	return Run{Off: a.dataOff + i*BlockSize, Pages: int(n)}, true
}

// firstFree returns the first free block at or after from, or -1.
func (a *allocator) firstFree(from int64) int64 {
	w := from >> 6
	if w >= int64(len(a.used)) {
		return -1
	}
	free := ^a.used[w] &^ (1<<(from&63) - 1)
	for free == 0 {
		if w++; w == int64(len(a.used)) {
			return -1
		}
		free = ^a.used[w]
	}
	if i := w<<6 + int64(bits.TrailingZeros64(free)); i < a.nblocks {
		return i
	}
	return -1 // only the padding bits past the last block are clear
}

// wordMask returns the bitmap word holding block i, the mask of the blocks
// of [i, end) in that word, and the first block past them.
func wordMask(i, end int64) (w int64, m uint64, next int64) {
	w = i >> 6
	next = min(end, (w+1)<<6)
	m = ^uint64(0) >> (64 - (next - i)) << (i & 63)
	return w, m, next
}

// alloc satisfies pages blocks as a list of runs (contiguous when
// possible), appended onto dst (pass a reusable buffer's [:0] to keep
// the hot path allocation-free). ok is false when space runs out;
// partial allocations are rolled back.
func (a *allocator) alloc(dst []Run, pages int) ([]Run, bool) {
	runs := dst
	got := 0
	for got < pages {
		r, ok := a.allocRun(pages - got)
		if !ok {
			for _, u := range runs[len(dst):] {
				a.freeRun(u)
			}
			return nil, false
		}
		runs = append(runs, r)
		got += r.Pages
	}
	return runs, true
}

// freeRun returns a run to the pool.
func (a *allocator) freeRun(r Run) {
	i := (r.Off - a.dataOff) / BlockSize
	for end := i + int64(r.Pages); i < end; {
		w, m, next := wordMask(i, end)
		if a.used[w]&m != m {
			panic("nova: double free of block")
		}
		a.used[w] &^= m
		i = next
	}
	a.free += int64(r.Pages)
}

// markUsed claims blocks during recovery.
func (a *allocator) markUsed(off int64, pages int) {
	i := (off - a.dataOff) / BlockSize
	for end := i + int64(pages); i < end; {
		w, m, next := wordMask(i, end)
		a.free -= int64(bits.OnesCount64(m &^ a.used[w]))
		a.used[w] |= m
		i = next
	}
}
