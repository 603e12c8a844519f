// Package nova is a functional reimplementation of NOVA [FAST '16], the
// log-structured persistent-memory filesystem the paper applies EasyIO to
// (§5). Files and directories each own a persistent metadata log (a chain
// of 4 KB log pages); data pages are updated copy-on-write; an operation
// commits by atomically advancing the inode's log tail pointer. A DRAM
// index (page -> block) and directory maps are rebuilt from the logs on
// mount.
//
// Everything EasyIO needs to hook is exported: block allocation, log entry
// append, tail commit, the per-inode level-1 lock, and the SN fields write
// entries carry for orderless recovery (§4.2).
package nova

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/perfmodel"
)

// On-device layout constants.
const (
	Magic     = 0x4e4f5641_45494f // "NOVA EIO"
	BlockSize = perfmodel.PageSize

	SuperOff      = 0
	JournalOff    = BlockSize
	CBRegionOff   = 2 * BlockSize // completion buffers for up to 16 DMA channels
	InodeTableOff = 3 * BlockSize

	InodeSlotSize = 128
	slotsPerPage  = BlockSize / InodeSlotSize

	// RootIno is the root directory's inode number. Ino 0 is invalid.
	RootIno = 1
)

// Inode kinds.
const (
	KindFree = 0
	KindFile = 1
	KindDir  = 2
)

// Log entry types.
const (
	etWrite      = 1
	etSetAttr    = 2
	etDentryAdd  = 3
	etDentryDel  = 4
	etLinkChange = 5
)

// logPageDataSize is the usable payload of a log page; the final 8 bytes
// chain to the next page.
const logPageDataSize = BlockSize - 8

// maxEntrySize bounds a serialized log entry (name-bearing entries cap the
// name at 255 bytes).
const maxEntrySize = 2 + 1 + 255 + 64

// MaxNameLen is the longest directory entry name.
const MaxNameLen = 255

// superblock is the persistent format descriptor.
type superblock struct {
	magic     uint64
	size      int64
	numInodes int64
	dataOff   int64
}

func (sb *superblock) encode() []byte {
	b := make([]byte, 32)
	put8(b[0:], sb.magic)
	put8(b[8:], uint64(sb.size))
	put8(b[16:], uint64(sb.numInodes))
	put8(b[24:], uint64(sb.dataOff))
	return b
}

func decodeSuper(b []byte) (superblock, error) {
	var sb superblock
	sb.magic = get8(b[0:])
	if sb.magic != Magic {
		return sb, fmt.Errorf("nova: bad superblock magic %#x", sb.magic)
	}
	sb.size = int64(get8(b[8:]))
	sb.numInodes = int64(get8(b[16:]))
	sb.dataOff = int64(get8(b[24:]))
	return sb, nil
}

func put8(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func get8(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// diskInode is an inode table slot image.
type diskInode struct {
	valid   uint8
	kind    uint8
	nlink   uint32
	size    int64
	mtime   uint64
	logHead int64
	logTail int64
}

func (di *diskInode) encode() []byte {
	b := make([]byte, InodeSlotSize)
	b[0] = di.valid
	b[1] = di.kind
	put8(b[4:], uint64(di.nlink)) // 4 bytes would do; keep it simple
	put8(b[12:], uint64(di.size))
	put8(b[20:], di.mtime)
	put8(b[28:], uint64(di.logHead))
	put8(b[36:], uint64(di.logTail))
	return b
}

func decodeInode(b []byte) diskInode {
	return diskInode{
		valid:   b[0],
		kind:    b[1],
		nlink:   uint32(get8(b[4:])),
		size:    int64(get8(b[12:])),
		mtime:   get8(b[20:]),
		logHead: int64(get8(b[28:])),
		logTail: int64(get8(b[36:])),
	}
}

// Entry is a decoded log entry. A single struct covers all types; unused
// fields are zero.
type Entry struct {
	Type byte

	// etWrite
	FileOff  int64
	Size     int64 // bytes covered by this entry
	BlockOff int64 // device offset of the first CoW block of the run
	Pages    int32
	// EasyIO orderless-operation witness (§4.2): the DMA descriptor's
	// sequence number. HasSN distinguishes "no DMA involved" (memcpy'd
	// data, durable before commit) from SN 0.
	HasSN    bool
	EngineID uint8
	ChanID   uint8
	SN       uint64

	// etSetAttr
	NewSize int64

	// etDentryAdd / etDentryDel / etLinkChange
	Ino       uint32
	Name      string
	LinkDelta int32

	Mtime uint64
}

// appendTo serializes the entry with a leading (type, length) header onto
// b (pass a reusable buffer's [:0] to keep the log-append path
// allocation-free) and returns the grown slice.
func (e *Entry) appendTo(b []byte) []byte {
	start := len(b)
	b = append(b, e.Type, 0, 0) // length patched below
	switch e.Type {
	case etWrite:
		b = append8(b, uint64(e.FileOff))
		b = append8(b, uint64(e.Size))
		b = append8(b, uint64(e.BlockOff))
		b = append8(b, uint64(e.Pages))
		b = append8(b, e.Mtime)
		flags := byte(0)
		if e.HasSN {
			flags = 1
		}
		b = append(b, flags, e.EngineID, e.ChanID)
		b = append8(b, e.SN)
	case etSetAttr:
		b = append8(b, uint64(e.NewSize))
		b = append8(b, e.Mtime)
	case etDentryAdd, etDentryDel:
		b = append8(b, uint64(e.Ino))
		if len(e.Name) > MaxNameLen {
			panic("nova: name too long")
		}
		b = append(b, byte(len(e.Name)))
		b = append(b, e.Name...)
	case etLinkChange:
		b = append8(b, uint64(uint32(e.LinkDelta)))
	default:
		panic(fmt.Sprintf("nova: encode of unknown entry type %d", e.Type))
	}
	bodyLen := len(b) - start - 3
	b[start+1] = byte(bodyLen)
	b[start+2] = byte(bodyLen >> 8)
	return b
}

// append8 appends v little-endian.
func append8(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// decodeEntry parses one entry at the head of b. It returns the entry and
// its total encoded length, or ok=false for a zero/invalid header (end of
// log page).
func decodeEntry(b []byte) (e Entry, n int, ok bool) {
	if len(b) < 3 || b[0] == 0 {
		return e, 0, false
	}
	bodyLen := int(b[1]) | int(b[2])<<8
	if 3+bodyLen > len(b) {
		return e, 0, false
	}
	body := b[3 : 3+bodyLen]
	r8 := func(off int) uint64 { return get8(body[off:]) }
	e.Type = b[0]
	switch e.Type {
	case etWrite:
		if bodyLen < 51 {
			return e, 0, false
		}
		e.FileOff = int64(r8(0))
		e.Size = int64(r8(8))
		e.BlockOff = int64(r8(16))
		e.Pages = int32(r8(24))
		e.Mtime = r8(32)
		e.HasSN = body[40] == 1
		e.EngineID = body[41]
		e.ChanID = body[42]
		e.SN = r8(43)
	case etSetAttr:
		if bodyLen < 16 {
			return e, 0, false
		}
		e.NewSize = int64(r8(0))
		e.Mtime = r8(8)
	case etDentryAdd, etDentryDel:
		if bodyLen < 9 {
			return e, 0, false
		}
		e.Ino = uint32(r8(0))
		nameLen := int(body[8])
		if 9+nameLen > bodyLen {
			return e, 0, false
		}
		e.Name = string(body[9 : 9+nameLen])
	case etLinkChange:
		if bodyLen < 8 {
			return e, 0, false
		}
		e.LinkDelta = int32(uint32(r8(0)))
	default:
		return e, 0, false
	}
	return e, 3 + bodyLen, true
}

// journal is the fixed-location record used to make two-inode operations
// (rename, link) atomic: it snapshots both log tails before the operation;
// recovery rolls the tails back if the journal is still valid.
type journalRec struct {
	valid uint8
	inoA  uint32
	inoB  uint32
	tailA int64
	tailB int64
}

func (j *journalRec) encode() []byte {
	b := make([]byte, 40)
	b[0] = j.valid
	put8(b[4:], uint64(j.inoA))
	put8(b[12:], uint64(j.inoB))
	put8(b[20:], uint64(j.tailA))
	put8(b[28:], uint64(j.tailB))
	return b
}

func decodeJournal(b []byte) journalRec {
	return journalRec{
		valid: b[0],
		inoA:  uint32(get8(b[4:])),
		inoB:  uint32(get8(b[12:])),
		tailA: int64(get8(b[20:])),
		tailB: int64(get8(b[28:])),
	}
}
