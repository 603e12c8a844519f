package nova

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/invariants"
)

// OpArena is a uthread's one scratch for filesystem operations, and the
// only thing its scratch slot ever holds. Its buffers reach their
// high-water size once and are reused, so steady-state operations never
// allocate (the //easyio:hotpath contract on the request lifecycle). It
// owns nova's CoW staging buffer, run, entry, replaced-block and extent
// lists; the one DMA descriptor pool, which SyncDMAMover and all of
// EasyIO's DMA paths draw from; the orderless write's per-run witnesses;
// and one completion countdown, whose callback every data-path
// descriptor and every Odinfs chunk completes through.
//
// Operations on one uthread are strictly sequential — every entry point
// waits for its own completions before returning — so one arena per
// uthread is safe even though operations yield. Under easyio_invariants
// the arena panics if it is reset or re-armed while a completion is
// outstanding. Functional contexts (nil task) never yield and share one
// arena per filesystem.
type OpArena struct {
	runs     []Run    // allocator result, PrepareWrite..FinishWrite
	buf      []byte   // page-aligned CoW staging image
	entries  []*Entry // entry list returned by WritePrep.Entries
	pool     []*Entry // entry backing store, reused via used
	used     int
	replaced []Run // ApplyWriteEntries result
	extents  []Run // ExtentRuns snapshot on the read path
	prep     WritePrep

	// descs is the descriptor pool (stable identities, the first
	// descUsed handed out); witnesses holds one record per run of an
	// orderless write.
	descs     []*dma.Desc
	descUsed  int
	witnesses []Witness

	// The countdown: remaining completions are outstanding, and the last
	// wakes ut. A committed orderless write sets fs and ino, and the last
	// completion first finishes the write. done is complete, bound once.
	remaining int
	ut        *caladan.UThread
	fs        *FS
	ino       *Inode
	done      func(uint64)
}

// Witness names the completion that makes one run of an orderless write
// durable: the SN of its last descriptor on channel Chan of engine
// Engine (§4.2). The arena keeps the run's submission batch beside it:
// descriptors [lo, hi) of the pool, all for ch.
type Witness struct {
	Engine, Chan int
	SN           uint64

	ch     *dma.Channel
	lo, hi int
}

// Arena returns the operation's arena: the uthread's, or the
// filesystem's solo arena for functional nil-task contexts.
func (fs *FS) Arena(t *caladan.Task) *OpArena {
	if t != nil {
		if a, ok := t.Scratch().(*OpArena); ok {
			return a
		}
	}
	return fs.installArena(t)
}

// installArena returns the solo arena for a nil task, creating it once
// per filesystem, and otherwise populates the uthread's empty slot, once
// per uthread.
//
//easyio:coldpath (one-time arena setup per uthread or filesystem)
func (fs *FS) installArena(t *caladan.Task) *OpArena {
	if t == nil {
		if fs.solo == nil {
			fs.solo = newOpArena()
		}
		return fs.solo
	}
	a := newOpArena()
	t.SetScratch(a)
	return a
}

// newOpArena returns an empty arena with its completion callback bound.
func newOpArena() *OpArena {
	a := &OpArena{}
	a.done = a.complete
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

// Extents snapshots the device runs behind [off, off+n) of ino into the
// arena's extent list.
func (a *OpArena) Extents(ino *Inode, off, n int64) []Run {
	a.extents = ino.ExtentRuns(a.extents[:0], off, n)
	return a.extents
}

// ResetDescs starts a new operation's descriptor pool and witnesses.
// The previous operation's descriptors have all completed (it waited on
// them), so their identities are free.
func (a *OpArena) ResetDescs() {
	a.assertIdle()
	a.descUsed = 0
	a.witnesses = a.witnesses[:0]
}

// Desc hands out the next pooled descriptor, cleared.
func (a *OpArena) Desc() *dma.Desc {
	if a.descUsed == len(a.descs) {
		a.growDescs()
	}
	d := a.descs[a.descUsed]
	a.descUsed++
	*d = dma.Desc{}
	return d
}

// growDescs raises the descriptor-pool high-water mark — bounded by the
// largest single operation's descriptor count.
//
//easyio:coldpath (descriptor-pool high-water growth)
func (a *OpArena) growDescs() {
	a.descs = append(a.descs, new(dma.Desc))
}

// EndRun closes one run of an orderless write: the descriptors handed
// out since the previous EndRun (or ResetDescs) form its batch for
// channel ch of engine eng.
func (a *OpArena) EndRun(eng int, ch *dma.Channel) {
	w := Witness{Engine: eng, Chan: ch.ID(), ch: ch, hi: a.descUsed}
	if n := len(a.witnesses); n > 0 {
		w.lo = a.witnesses[n-1].hi
	}
	a.witnesses = append(a.witnesses, w)
}

// Witnesses returns one record per run EndRun closed. The caller fills
// in each SN as it submits the run's Batch.
func (a *OpArena) Witnesses() []Witness { return a.witnesses }

// Batch returns run i's channel and descriptors.
func (a *OpArena) Batch(i int) (*dma.Channel, []*dma.Desc) {
	w := a.witnesses[i]
	return w.ch, a.descs[w.lo:w.hi]
}

// Arm starts a countdown of n completions whose last wakes ut, and
// returns the callback each completion calls.
func (a *OpArena) Arm(ut *caladan.UThread, n int) func(uint64) {
	a.assertIdle()
	a.remaining, a.ut, a.ino = n, ut, nil
	return a.done
}

// ArmDescs arms the countdown over the descriptors handed out since
// ResetDescs, makes the arena's callback each one's OnComplete, and
// returns them in hand-out order. An orderless write passes a nil ut and
// names its uthread at Committed.
func (a *OpArena) ArmDescs(ut *caladan.UThread) []*dma.Desc {
	descs := a.descs[:a.descUsed]
	done := a.Arm(ut, len(descs))
	for _, d := range descs {
		d.OnComplete = done
	}
	return descs
}

// Committed is called by an orderless write on fs once ApplyWriteEntries
// has filled the arena's replaced list, and reports whether ut must wait.
// If every descriptor has already landed, the write is finished:
// Committed frees the replaced blocks, and the writer raises no Pending
// and does not wait. Otherwise Committed raises ino.Pending, closing the
// level-2 gate (§4.3), and the last completion finishes the write.
func (a *OpArena) Committed(fs *FS, ino *Inode, ut *caladan.UThread) bool {
	if a.remaining == 0 {
		fs.FreeRuns(a.replaced)
		return false
	}
	a.fs, a.ino, a.ut = fs, ino, ut
	ino.Pending++
	return true
}

// complete is the arena's one completion callback. The last completion
// wakes the uthread. For a committed orderless write it first frees the
// replaced blocks — recovery may fall back to them until the new data is
// durable (§4.2) — and opens the inode's level-2 gate. A write whose
// data lands before it commits has no uthread to wake yet: it is still
// running, and a wake would be left pending for its next park.
func (a *OpArena) complete(uint64) {
	a.remaining--
	if a.remaining > 0 {
		return
	}
	if a.ino != nil {
		a.fs.FreeRuns(a.replaced)
		a.ino.Pending--
		if a.ino.Pending == 0 {
			a.ino.Gate.Broadcast()
		}
	}
	if a.ut != nil {
		a.ut.Wake()
	}
}

// assertIdle panics, under easyio_invariants, if the previous operation
// still has a completion outstanding: its pooled descriptors and
// countdown are live, so reusing them would corrupt it.
func (a *OpArena) assertIdle() {
	if invariants.Enabled && a.remaining != 0 {
		panic("nova: operation arena reused while a completion is outstanding")
	}
}
