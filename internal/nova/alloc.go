package nova

import "math/bits"

// Run is a contiguous extent of data blocks on the device.
type Run struct {
	Off   int64 // device byte offset, BlockSize-aligned
	Pages int
}

// Bytes returns the run length in bytes.
func (r Run) Bytes() int64 { return int64(r.Pages) * BlockSize }

// bitmapLeafShift sizes a bitmap leaf: 512 words, the bits of 32,768
// blocks (128 MB of device) in 4 KB of DRAM.
const (
	bitmapLeafShift = 9
	bitmapLeafWords = 1 << bitmapLeafShift
)

// bitmapLeaf holds the bits of one 32,768-block span.
type bitmapLeaf [bitmapLeafWords]uint64

// allocator is the DRAM free-block tracker. Like NOVA's, it is volatile:
// the persistent truth is the set of blocks reachable from inode logs, and
// mount rebuilds it. Bit i%64 of bitmap word i/64 is set while block i is
// allocated. The bitmap is a directory of fixed-size leaves, each
// allocated when its first bit is set; a missing leaf reads as all free,
// so a device that holds little costs little.
type allocator struct {
	dataOff int64
	nblocks int64
	nwords  int64
	leaves  []*bitmapLeaf
	hint    int64
	free    int64
}

func newAllocator(dataOff, devSize int64) *allocator {
	n := (devSize - dataOff) / BlockSize
	nwords := (n + 63) / 64
	return &allocator{
		dataOff: dataOff,
		nblocks: n,
		nwords:  nwords,
		leaves:  make([]*bitmapLeaf, (nwords+bitmapLeafWords-1)/bitmapLeafWords),
		free:    n,
	}
}

// word returns bitmap word w; a missing leaf's words are all free.
func (a *allocator) word(w int64) uint64 {
	if l := a.leaves[w>>bitmapLeafShift]; l != nil {
		return l[w&(bitmapLeafWords-1)]
	}
	return 0
}

// wordPtr returns bitmap word w for setting bits, allocating its leaf on
// first touch.
func (a *allocator) wordPtr(w int64) *uint64 {
	l := a.leaves[w>>bitmapLeafShift]
	if l == nil {
		l = a.addLeaf(w >> bitmapLeafShift)
	}
	return &l[w&(bitmapLeafWords-1)]
}

// addLeaf allocates bitmap leaf i on the first set bit in its range.
//
//easyio:coldpath (first-touch bitmap leaf; at most one per 32,768 blocks of the device)
func (a *allocator) addLeaf(i int64) *bitmapLeaf {
	l := new(bitmapLeaf)
	a.leaves[i] = l
	return l
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
		if rest := a.word(end>>6) >> (end & 63); rest != 0 {
			end += int64(bits.TrailingZeros64(rest))
			break
		}
		end += 64 - end&63
	}
	end = min(end, lim)
	for j := i; j < end; {
		w, m, next := wordMask(j, end)
		*a.wordPtr(w) |= m
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
	if w >= a.nwords {
		return -1
	}
	free := ^a.word(w) &^ (1<<(from&63) - 1)
	for free == 0 {
		if w++; w == a.nwords {
			return -1
		}
		free = ^a.word(w)
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
		if a.word(w)&m != m {
			panic("nova: double free of block")
		}
		*a.wordPtr(w) &^= m
		i = next
	}
	a.free += int64(r.Pages)
}

// markUsed claims blocks during recovery.
func (a *allocator) markUsed(off int64, pages int) {
	i := (off - a.dataOff) / BlockSize
	for end := i + int64(pages); i < end; {
		w, m, next := wordMask(i, end)
		p := a.wordPtr(w)
		a.free -= int64(bits.OnesCount64(m &^ *p))
		*p |= m
		i = next
	}
}
