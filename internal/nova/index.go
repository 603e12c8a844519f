package nova

// leafShift sizes an index leaf: 512 pages, i.e. 2 MB of file span in
// 4 KB of DRAM.
const (
	leafShift = 9
	leafPages = 1 << leafShift
)

// indexLeaf maps the pages of one 2 MB span of a file to device block
// offsets; 0 marks a hole (data blocks never sit at device offset 0, which
// is the superblock).
type indexLeaf [leafPages]int64

// blockIndex is a file's DRAM page -> block index, a two-level radix
// table in the manner of NOVA's per-inode radix tree: top holds one
// pointer per 2 MB span, nil until a page in that span is mapped. Host
// cost follows what is stored rather than the key space: a lookup is two
// loads, and memory is 4 KB per 2 MB span ever written plus 8 B of top
// table per 2 MB of span up to the highest page ever written (a single
// page at 1 TB costs a 4 MB top table). Leaves stay allocated when their
// pages are deleted; the index is freed with its inode.
type blockIndex struct {
	top []*indexLeaf
	n   int // mapped pages
}

// get returns the block backing page pg, or 0 for a hole (negative pages
// included).
func (ix *blockIndex) get(pg int64) int64 {
	i := uint64(pg) >> leafShift
	if i >= uint64(len(ix.top)) {
		return 0
	}
	l := ix.top[i]
	if l == nil {
		return 0
	}
	return l[pg&(leafPages-1)]
}

// set maps page pg (non-negative) to block b (non-zero) and returns the
// block it replaced, or 0 if the page was a hole.
func (ix *blockIndex) set(pg, b int64) (old int64) {
	i := pg >> leafShift
	if i >= int64(len(ix.top)) || ix.top[i] == nil {
		ix.addLeaf(i)
	}
	slot := &ix.top[i][pg&(leafPages-1)]
	old = *slot
	*slot = b
	if old == 0 {
		ix.n++
	}
	return old
}

// addLeaf creates the leaf for span i, growing the top table to reach it.
//
//easyio:coldpath (index leaf creation; bounded by the file's span)
func (ix *blockIndex) addLeaf(i int64) {
	if i >= int64(len(ix.top)) {
		top := make([]*indexLeaf, i+1, max(i+1, 2*int64(len(ix.top))))
		copy(top, ix.top)
		ix.top = top
	}
	ix.top[i] = new(indexLeaf)
}

// del turns page pg into a hole.
func (ix *blockIndex) del(pg int64) {
	i := uint64(pg) >> leafShift
	if i >= uint64(len(ix.top)) || ix.top[i] == nil {
		return
	}
	if slot := &ix.top[i][pg&(leafPages-1)]; *slot != 0 {
		*slot = 0
		ix.n--
	}
}

// len returns the number of mapped pages.
func (ix *blockIndex) len() int { return ix.n }

// walk calls visit for every mapped page at or after from, in ascending
// page order. visit may del the page it is given.
func (ix *blockIndex) walk(from int64, visit func(pg, b int64)) {
	if from < 0 {
		from = 0
	}
	for i := from >> leafShift; i < int64(len(ix.top)); i++ {
		l := ix.top[i]
		if l == nil {
			continue
		}
		k := int64(0)
		if i == from>>leafShift {
			k = from & (leafPages - 1)
		}
		for ; k < leafPages; k++ {
			if b := l[k]; b != 0 {
				visit(i<<leafShift|k, b)
			}
		}
	}
}
