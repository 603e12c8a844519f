package nova

// inodeLeafShift sizes an inode-table leaf: 512 slots, 4 KB of DRAM.
const (
	inodeLeafShift = 9
	inodeLeafSlots = 1 << inodeLeafShift
)

// inodeLeaf holds the DRAM inodes of 512 consecutive inode numbers.
type inodeLeaf [inodeLeafSlots]*Inode

// inodeTable maps inode numbers to their DRAM inodes, nil for a free
// slot. Like the allocator bitmap it is a directory of fixed-size leaves,
// each allocated on the first non-nil set; a missing leaf reads as all
// free, so a table that holds a root and a few files costs one leaf, not
// its capacity.
type inodeTable struct {
	n      int // slots: inode numbers 0..n-1
	leaves []*inodeLeaf
}

func newInodeTable(n int64) inodeTable {
	return inodeTable{n: int(n), leaves: make([]*inodeLeaf, (n+inodeLeafSlots-1)/inodeLeafSlots)}
}

// get returns inode num, or nil for a free slot.
func (t *inodeTable) get(num uint32) *Inode {
	if l := t.leaves[num>>inodeLeafShift]; l != nil {
		return l[num&(inodeLeafSlots-1)]
	}
	return nil
}

// set stores ino in slot num. Clearing a slot whose leaf is missing
// allocates nothing.
func (t *inodeTable) set(num uint32, ino *Inode) {
	l := t.leaves[num>>inodeLeafShift]
	if l == nil {
		if ino == nil {
			return
		}
		l = t.addLeaf(num >> inodeLeafShift)
	}
	l[num&(inodeLeafSlots-1)] = ino
}

// addLeaf allocates leaf i on the first inode stored in its range.
func (t *inodeTable) addLeaf(i uint32) *inodeLeaf {
	l := new(inodeLeaf)
	t.leaves[i] = l
	return l
}
