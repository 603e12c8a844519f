package nova

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
)

// OpArena is the per-uthread scratch for one filesystem operation: the
// CoW staging buffer, allocator run list, write-entry pool, replaced-
// block list and SyncDMAMover's descriptor pool all reach their
// high-water size once and are reused for every later operation, so the
// steady-state write and read paths never allocate (the //easyio:hotpath
// contract on the request lifecycle).
//
// Operations on one uthread are strictly sequential — every entry point
// waits for its own completions before returning — so a single arena per
// uthread is safe even though operations yield at compute-charge and
// completion-wait points. Functional contexts (nil task) never yield and
// share one arena per filesystem.
type OpArena struct {
	runs     []Run    // allocator result, PrepareWrite..FinishWrite
	buf      []byte   // page-aligned CoW staging image
	entries  []*Entry // entry list returned by WritePrep.Entries
	pool     []*Entry // entry backing store, reused via used
	used     int
	replaced []Run // ApplyWriteEntries result
	extents  []Run // ExtentRuns snapshot on the read path
	prep     WritePrep

	// SyncDMAMover's operation state: descs is the descriptor pool
	// (stable identities, the first descUsed handed out), remaining
	// counts the operation's outstanding descriptors, and descDone, bound
	// once here, counts them down and wakes ut on the last.
	descs     []*dma.Desc
	descUsed  int
	remaining int
	ut        *caladan.UThread
	descDone  func(uint64)
}

// NewOpArena returns an empty arena. Callers that drive the filesystem
// outside a caladan uthread (tools, recovery tests) may pass one task
// context explicitly by installing it with caladan's Task.SetScratch.
func NewOpArena() *OpArena {
	a := &OpArena{}
	a.descDone = func(uint64) {
		a.remaining--
		if a.remaining == 0 {
			a.ut.Wake()
		}
	}
	return a
}

// arenaHolder lets a wrapping layer (internal/core keeps its own scratch
// in the uthread slot) expose the nova arena it embeds.
type arenaHolder interface {
	NovaArena() *OpArena
}

// arenaFor resolves the arena for the current operation: the uthread's
// slot (installing one on first use), or the filesystem's solo arena for
// functional nil-task contexts.
func (fs *FS) arenaFor(t *caladan.Task) *OpArena {
	if t == nil {
		if fs.solo == nil {
			fs.initSoloArena()
		}
		return fs.solo
	}
	switch v := t.Scratch().(type) {
	case *OpArena:
		return v
	case arenaHolder:
		return v.NovaArena()
	}
	return fs.installArena(t)
}

// initSoloArena sets up the shared nil-task arena, once per filesystem.
//
//easyio:coldpath (one-time arena setup for functional contexts)
func (fs *FS) initSoloArena() {
	fs.solo = NewOpArena()
}

// installArena populates an empty uthread slot, once per uthread.
//
//easyio:coldpath (one-time per-uthread arena setup)
func (fs *FS) installArena(t *caladan.Task) *OpArena {
	a := NewOpArena()
	t.SetScratch(a)
	return a
}

// bytes returns an n-byte staging slice backed by the arena, growing the
// high-water buffer when needed. Contents are unspecified: PrepareWrite
// defines every byte (data copy, edge-page merge, or explicit zeroing).
func (a *OpArena) bytes(n int64) []byte {
	if int64(cap(a.buf)) < n {
		a.growBuf(n)
	}
	return a.buf[:n]
}

// growBuf raises the staging high-water mark — per arena, writes larger
// than any before grow it once and it stays.
//
//easyio:coldpath (staging-buffer high-water growth)
func (a *OpArena) growBuf(n int64) {
	a.buf = make([]byte, n)
}

// entry hands out the next pooled write entry, growing the pool on first
// use. Entries stay valid until the next operation resets the arena.
func (a *OpArena) entry() *Entry {
	if a.used == len(a.pool) {
		a.growPool()
	}
	e := a.pool[a.used]
	a.used++
	return e
}

// growPool raises the entry-pool high-water mark — bounded by the most
// fragmented single write seen.
//
//easyio:coldpath (entry-pool high-water growth)
func (a *OpArena) growPool() {
	a.pool = append(a.pool, new(Entry))
}

// tempArena backs WritePrep values built outside PrepareWrite (tests,
// tools); the production path always threads an arena through.
//
//easyio:coldpath (compatibility arena for hand-built WritePreps)
func tempArena() *OpArena { return NewOpArena() }

// desc hands out the next pooled descriptor, cleared, growing the pool
// to a new high-water mark when needed. The previous operation's
// descriptors have all completed (its mover waited on them), so their
// identities are free once the caller resets descUsed. Only
// SyncDMAMover reaches this, through the DataMover interface, which no
// hot path's static summary follows; TestDMAMoverNoAllocs pins it.
func (a *OpArena) desc() *dma.Desc {
	if a.descUsed == len(a.descs) {
		a.descs = append(a.descs, new(dma.Desc))
	}
	d := a.descs[a.descUsed]
	a.descUsed++
	*d = dma.Desc{}
	return d
}
