// Package pmem simulates a slow-memory device (Optane DCPMM or a
// CXL-attached NVM pool) with two decoupled planes:
//
//   - A functional plane: a sparse, byte-addressable persistent store with
//     real contents, store/fence persistence semantics and crash-image
//     generation (what survives a power failure).
//   - A temporal plane: bandwidth arbitration between concurrent transfer
//     flows (CPU memcpy loops and DMA channel transfers) using weighted
//     max-min fair sharing under the capacity model in perfmodel —
//     per-core CPU rate degradation, DIMM direction caps with write
//     anti-scaling, and per-DMA-engine caps.
//
// Flows model *time*: callers start a flow for the bytes they move and are
// notified when the device has streamed them; the functional copy is then
// performed by the caller (so data lands atomically at completion time,
// which is also when it becomes durable for DMA writes).
package pmem

import (
	"bytes"
	"fmt"
	"math"

	"github.com/easyio-sim/easyio/internal/invariants"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/sim"
)

const pageSize = perfmodel.PageSize

// Kind distinguishes who is moving the data; it selects the rate model.
type Kind int

const (
	// FlowCPU is a core executing a load/store copy loop.
	FlowCPU Kind = iota
	// FlowDMA is an on-chip DMA engine channel transfer.
	FlowDMA
)

// FlowSpec describes a transfer to be timed by the device.
type FlowSpec struct {
	// Write is true for DRAM->PM transfers.
	Write bool
	Kind  Kind
	// Bytes is the transfer length.
	Bytes int64
	// Weight biases the max-min share (DMA engines serve large
	// descriptors disproportionately; see §2.2 "latency spikes").
	// Zero means weight 1.
	Weight float64
	// Group identifies the DMA engine for per-engine caps (ignored for
	// CPU flows).
	Group int
	// Remote applies the cross-NUMA penalty to CPU flows.
	Remote bool
	// OnDone fires from event context when the last byte has streamed.
	OnDone func()
}

// Flow is an in-flight transfer. The device recycles Flow objects: a
// completed flow and a cancelled one go back to one pool. A handle is
// dead once OnDone fires or Cancel returns true; Done and Cancel stay
// truthful only until the device reuses the struct.
type Flow struct {
	dev       *Device
	spec      FlowSpec
	remaining float64
	rate      float64 // bytes/sec allocated by the last recompute
	limit     float64 // per-recompute scratch: demand after each stage's caps
	// specRate is a DMA flow's spec-only standalone rate (channel rate
	// times the size boost), fixed at StartFlow; CPU flows leave it 0.
	specRate float64
	done     bool
	sat      bool // per-capLimits scratch: limit settled in a max-min round
}

// Progress reports the fraction of the flow completed in [0, 1].
func (f *Flow) Progress() float64 {
	if f.done {
		return 1
	}
	f.dev.advance()
	if f.spec.Bytes == 0 {
		return 1
	}
	p := 1 - f.remaining/float64(f.spec.Bytes)
	if p < 0 {
		p = 0
	}
	return p
}

// Done reports whether the flow has completed or been cancelled.
func (f *Flow) Done() bool { return f.done }

// Cancel removes an in-flight flow without firing OnDone and retires it
// to the device's free list. It reports whether the flow was still
// active. The retired struct keeps done set until StartFlow reuses it,
// so until then Done reports true and Cancel false.
func (f *Flow) Cancel() bool {
	if f.done {
		return false
	}
	d := f.dev
	d.advance()
	f.done = true
	d.removeFlow(f)
	d.invalidate()
	d.freeFlows = append(d.freeFlows, f)
	return true
}

// Device is one simulated slow-memory device (or an aggregated multi-node
// system, per the perfmodel profile in use).
type Device struct {
	eng   *sim.Engine
	model perfmodel.Memory
	size  int64

	pages map[int64]*[pageSize]byte

	flows []*Flow
	// pending is the queued completion event, due at due. slot is the
	// place in the event order reserved at the last flow-set change:
	// recompute puts the completion there.
	pending sim.Timer
	due     sim.Time
	slot    sim.Slot
	lastAdv sim.Time
	// settle is set while recompute is registered as the current
	// instant's settle hook: the flow set changed and the rates and the
	// pending completion time are stale until the instant ends.
	settle bool

	// completeDueFn and recomputeFn are the pre-bound callbacks invalidate
	// hands to the engine; a method value there would allocate one
	// bound-method closure per flow change (see //easyio:hotpath on
	// invalidate).
	completeDueFn, recomputeFn func()

	// freeGroups recycles emptied arbitration groups (and their flows
	// slice capacity): bursty traffic drains and re-forms groups
	// constantly, and re-forming one must not allocate.
	freeGroups []*dmaGroup
	// freeFlows recycles Flow objects retired by completeDue and Cancel;
	// fired is completeDue's per-call scratch. Steady state starts flows
	// from the pool.
	freeFlows []*Flow
	fired     []*Flow

	// Incrementally maintained arbitration state: population counters,
	// the flows of each direction (reads, writes) in d.flows order and
	// the ordered DMA (engine group, direction) set, updated on flow
	// attach/detach so recompute never rebuilds or sorts them.
	cpuR, cpuW int
	dir        [2][]*Flow
	groups     []*dmaGroup

	// Persistence tracking (crash simulation).
	tracking bool
	records  []PersistRecord
	epoch    int
	base     map[int64]*[pageSize]byte
}

// New creates a device of the given byte size.
func New(eng *sim.Engine, model perfmodel.Memory, size int64) *Device {
	d := &Device{
		eng:   eng,
		model: model,
		size:  size,
		pages: make(map[int64]*[pageSize]byte),
	}
	d.completeDueFn = d.completeDue
	d.recomputeFn = d.recompute
	return d
}

// Engine returns the simulation engine the device is bound to.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Model returns the device's calibration profile.
func (d *Device) Model() perfmodel.Memory { return d.model }

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

func (d *Device) check(off int64, n int) {
	if off < 0 || off+int64(n) > d.size {
		panic(fmt.Sprintf("pmem: access [%d, %d) outside device of size %d", off, off+int64(n), d.size))
	}
}

// ReadAt copies device contents at off into b. Unwritten bytes read as
// zero. This is the functional plane only; it consumes no virtual time.
func (d *Device) ReadAt(b []byte, off int64) {
	d.check(off, len(b))
	for len(b) > 0 {
		pg, po := off/pageSize, off%pageSize
		n := pageSize - int(po)
		if n > len(b) {
			n = len(b)
		}
		if p := d.pages[pg]; p != nil {
			copy(b[:n], p[po:int(po)+n])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		off += int64(n)
	}
}

// zeroPage is read-only: WriteAt compares stores against it.
var zeroPage [pageSize]byte

// WriteAt stores b at off. The store is immediately visible to readers but
// only becomes durable at the next Fence (stores between fences may
// survive a crash in any subset — see CrashImage). An all-zero store to an
// absent page leaves it absent, since absent pages already read as zero.
func (d *Device) WriteAt(off int64, b []byte) {
	copy(d.store(off, len(b)), b)
	for len(b) > 0 {
		pg, po := off/pageSize, off%pageSize
		n := pageSize - int(po)
		if n > len(b) {
			n = len(b)
		}
		if p := d.pages[pg]; p != nil {
			copy(p[po:int(po)+n], b[:n])
		} else if !bytes.Equal(b[:n], zeroPage[:n]) {
			copy(d.addPage(pg)[po:int(po)+n], b[:n])
		}
		b = b[n:]
		off += int64(n)
	}
}

// ZeroAt stores n zero bytes at off: exactly WriteAt(off, make([]byte, n))
// without building or comparing the buffer. Absent pages stay absent and
// present pages are cleared over [off, off+n). Under tracking the store is
// one all-zero record.
func (d *Device) ZeroAt(off int64, n int) {
	d.store(off, n)
	for n > 0 {
		pg, po := off/pageSize, off%pageSize
		k := min(pageSize-int(po), n)
		if p := d.pages[pg]; p != nil {
			clear(p[po : int(po)+k])
		}
		n -= k
		off += int64(k)
	}
}

// Absent reports whether no page backs any byte of [off, off+n): such a
// range reads as zeros.
func (d *Device) Absent(off int64, n int) bool {
	d.check(off, n)
	if n == 0 {
		return true
	}
	for pg := off / pageSize; pg <= (off+int64(n)-1)/pageSize; pg++ {
		if d.pages[pg] != nil {
			return false
		}
	}
	return true
}

// store does the bookkeeping WriteAt and ZeroAt share before their bytes
// land: the bounds check and the persist record under tracking (returned
// zeroed for WriteAt to fill, nil when not tracking).
func (d *Device) store(off int64, n int) []byte {
	d.check(off, n)
	if invariants.Enabled && d.tracking && len(d.records) > 0 &&
		d.records[len(d.records)-1].Epoch > d.epoch {
		panic("pmem: persist record epoch regressed (fence ordering violated)")
	}
	if !d.tracking {
		return nil
	}
	return d.record(off, n)
}

// record appends one n-byte persist record for crash simulation and
// returns its zeroed data for the caller to fill. Tracking is a
// crashmonkey-mode debugging aid, never on during steady-state serving,
// and each record owns a copy of the store.
//
//easyio:coldpath (crash-simulation tracking; off in steady-state serving)
func (d *Device) record(off int64, n int) []byte {
	data := make([]byte, n)
	d.records = append(d.records, PersistRecord{Epoch: d.epoch, Off: off, Data: data})
	return data
}

// addPage demand-allocates the backing page on first touch. Each page is
// allocated once per device lifetime; the steady-state working set hits
// the map.
//
//easyio:coldpath (first-touch demand paging; bounded by the device size)
func (d *Device) addPage(pg int64) *[pageSize]byte {
	p := new([pageSize]byte)
	d.pages[pg] = p
	return p
}

// Read8 reads a 64-bit little-endian value (used for completion buffers
// and log tail pointers).
func (d *Device) Read8(off int64) uint64 {
	var b [8]byte
	d.ReadAt(b[:], off)
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Write8 stores a 64-bit little-endian value.
func (d *Device) Write8(off int64, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	d.WriteAt(off, b[:])
}

// Fence orders persistence: all stores issued before the fence are durable
// in every crash image taken after it.
func (d *Device) Fence() {
	if d.tracking {
		d.epoch++
	}
}

// ---------------------------------------------------------------------------
// Temporal plane: flow arbitration.

// StartFlow begins timing a transfer. OnDone fires from event context once
// the device has streamed spec.Bytes. Zero-length flows complete on the
// next event tick.
func (d *Device) StartFlow(spec FlowSpec) *Flow {
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	if spec.Bytes <= 0 {
		return d.startZeroFlow(spec)
	}
	var f *Flow
	if n := len(d.freeFlows); n > 0 {
		f = d.freeFlows[n-1]
		d.freeFlows[n-1] = nil
		d.freeFlows = d.freeFlows[:n-1]
		*f = Flow{dev: d, spec: spec, remaining: float64(spec.Bytes)}
	} else {
		f = newFlow(d, spec)
	}
	if spec.Kind != FlowCPU {
		f.specRate = dmaRate(&d.model, spec)
	}
	d.advance()
	d.flows = append(d.flows, f)
	d.attach(f)
	d.invalidate()
	return f
}

// newFlow grows the flow population when the free list runs dry —
// bounded by the peak concurrent-transfer count, after which StartFlow
// recycles forever.
//
//easyio:coldpath (flow free-list refill; population reaches high water and stays there)
func newFlow(d *Device, spec FlowSpec) *Flow {
	return &Flow{dev: d, spec: spec, remaining: float64(spec.Bytes)}
}

// startZeroFlow completes a degenerate zero-length transfer on the next
// event tick. Nothing on the steady-state data path issues empty
// transfers (movers skip them before reaching the device).
//
//easyio:coldpath (degenerate zero-length transfer)
func (d *Device) startZeroFlow(spec FlowSpec) *Flow {
	f := &Flow{dev: d, spec: spec, done: true}
	d.eng.After(0, func() {
		if spec.OnDone != nil {
			spec.OnDone()
		}
	})
	return f
}

// ActiveFlows reports the number of in-flight flows.
func (d *Device) ActiveFlows() int { return len(d.flows) }

// dmaKey identifies one (engine group, direction) arbitration domain.
type dmaKey struct {
	group int
	write bool
}

func (k dmaKey) less(o dmaKey) bool {
	if k.group != o.group {
		return k.group < o.group
	}
	return !k.write && o.write
}

// dmaGroup holds the active DMA flows of one (group, direction) domain in
// flow-start order — the same relative order they occupy in d.flows, so
// max-min visits them exactly as the full scan used to.
type dmaGroup struct {
	key   dmaKey
	flows []*Flow
}

// groupIndex binary-searches the ordered group set for key; found reports
// whether the group at the returned insertion point matches.
func (d *Device) groupIndex(key dmaKey) (int, bool) {
	// Hand-rolled sort.Search: the closure form would allocate on every
	// attach/detach, which sits on the arbitration hot path.
	lo, hi := 0, len(d.groups)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.groups[mid].key.less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.groups) && d.groups[lo].key == key
}

// dirIndex is the index of a direction's flow list in Device.dir.
func dirIndex(write bool) int {
	if write {
		return 1
	}
	return 0
}

// attach registers f, just appended to d.flows, with the incremental
// arbitration state (O(log k) in the number of active domains).
func (d *Device) attach(f *Flow) {
	w := dirIndex(f.spec.Write)
	d.dir[w] = append(d.dir[w], f)
	if f.spec.Kind == FlowCPU {
		if f.spec.Write {
			d.cpuW++
		} else {
			d.cpuR++
		}
		return
	}
	key := dmaKey{f.spec.Group, f.spec.Write}
	i, ok := d.groupIndex(key)
	if !ok {
		d.insertGroup(i, key)
	}
	d.groups[i].flows = append(d.groups[i].flows, f)
}

// insertGroup materializes the (group, direction) arbitration domain at
// insertion point i. Each domain is created on its first active flow;
// with a fixed engine topology the set reaches its full population early
// and detach keeps the emptied structs out of the order, so steady state
// never re-enters this path for a busy domain... the group count is
// bounded by 2x the engine-group count.
//
//easyio:coldpath (first-flow arbitration-domain setup; bounded by the engine topology)
func (d *Device) insertGroup(i int, key dmaKey) {
	var g *dmaGroup
	if n := len(d.freeGroups); n > 0 {
		g = d.freeGroups[n-1]
		d.freeGroups[n-1] = nil
		d.freeGroups = d.freeGroups[:n-1]
		g.key = key
	} else {
		g = &dmaGroup{key: key}
	}
	d.groups = append(d.groups, nil)
	copy(d.groups[i+1:], d.groups[i:])
	d.groups[i] = g
}

// detach unregisters f, keeping the remaining flows' relative order.
func (d *Device) detach(f *Flow) {
	w := dirIndex(f.spec.Write)
	d.dir[w] = deleteFlow(d.dir[w], f)
	if f.spec.Kind == FlowCPU {
		if f.spec.Write {
			d.cpuW--
		} else {
			d.cpuR--
		}
		return
	}
	key := dmaKey{f.spec.Group, f.spec.Write}
	i, ok := d.groupIndex(key)
	if !ok {
		panic("pmem: detach of flow with no arbitration group")
	}
	g := d.groups[i]
	g.flows = deleteFlow(g.flows, f)
	if len(g.flows) == 0 {
		d.groups = append(d.groups[:i], d.groups[i+1:]...)
		g.flows = g.flows[:0]
		d.freeGroups = append(d.freeGroups, g)
	}
}

// deleteFlow removes f from flows, keeping the others' order.
func deleteFlow(flows []*Flow, f *Flow) []*Flow {
	for i, g := range flows {
		if g == f {
			n := copy(flows[i:], flows[i+1:])
			flows[i+n] = nil
			return flows[:i+n]
		}
	}
	return flows
}

func (d *Device) removeFlow(f *Flow) {
	d.flows = deleteFlow(d.flows, f)
	d.detach(f)
}

// advance applies elapsed virtual time to all flow progress counters.
func (d *Device) advance() {
	now := d.eng.Now()
	if invariants.Enabled && now < d.lastAdv {
		panic("pmem: device observed virtual time moving backwards")
	}
	dt := float64(now-d.lastAdv) / 1e9
	d.lastAdv = now
	if dt <= 0 {
		return
	}
	if invariants.Enabled && d.settle {
		panic("pmem: virtual time moved before the arbitration settled")
	}
	for _, f := range d.flows {
		f.remaining -= f.rate * dt
	}
}

// dmaRate returns a DMA flow's standalone rate, which depends on its
// spec alone.
func dmaRate(m *perfmodel.Memory, spec FlowSpec) float64 {
	rate := m.DMAChanReadRate
	if spec.Write {
		rate = m.DMAChanWriteRate
	}
	// Bulk descriptors stream disproportionately fast: deep prefetch
	// and amortized record turnaround let one channel consume device
	// bandwidth far beyond its fair share, starving the others —
	// the §2.2 interference finding that motivates B-app splitting.
	if spec.Bytes > 64<<10 {
		boost := math.Sqrt(float64(spec.Bytes) / (64 << 10))
		if boost > 2.2 {
			boost = 2.2
		}
		rate *= boost
	}
	return rate
}

// capLimits lowers the limits of flows, which share one cap, to their
// weighted max-min share of cap, in place. The demand is summed once, in
// flow order. An uncontended set (the limits sum to at most
// cap·(1−1e-9)) keeps its limits without the rounds. That is the rounds'
// own answer, bit for bit: the unsaturated limits never sum to more than
// remaining, so the smallest limit/weight ratio is at most remaining/wsum
// and every round saturates at least one flow, each at exactly its limit.
// The 1e-9 margin absorbs the rounding in remaining, which is orders of
// magnitude smaller.
func capLimits(flows []*Flow, cap float64) {
	var demand float64
	for _, f := range flows {
		demand += f.limit
		f.sat = false
	}
	if demand <= cap*(1-1e-9) {
		return
	}
	remaining := cap
	for {
		var wsum float64
		for _, f := range flows {
			if !f.sat {
				wsum += f.spec.Weight
			}
		}
		if wsum == 0 {
			return
		}
		progressed := false
		for _, f := range flows {
			if f.sat {
				continue
			}
			if f.limit <= remaining*f.spec.Weight/wsum {
				remaining -= f.limit
				f.sat = true
				progressed = true
			}
		}
		if !progressed {
			for _, f := range flows {
				if !f.sat {
					f.limit = remaining * f.spec.Weight / wsum
				}
			}
			return
		}
	}
}

// checkArbCounters recounts the incremental arbitration state from
// scratch and panics on divergence (easyio_invariants builds only).
func (d *Device) checkArbCounters() {
	var cpuR, cpuW int
	var dirN [2]int
	perKey := map[dmaKey]int{}
	for _, f := range d.flows {
		w := dirIndex(f.spec.Write)
		if dirN[w] >= len(d.dir[w]) || d.dir[w][dirN[w]] != f {
			panic(fmt.Sprintf("pmem: direction list %d out of step with the flows at %d", w, dirN[w]))
		}
		dirN[w]++
		if f.spec.Kind == FlowCPU {
			if f.spec.Write {
				cpuW++
			} else {
				cpuR++
			}
		} else {
			perKey[dmaKey{f.spec.Group, f.spec.Write}]++
		}
	}
	if dirN[0] != len(d.dir[0]) || dirN[1] != len(d.dir[1]) {
		panic(fmt.Sprintf("pmem: direction lists hold (%d,%d) flows but flows hold (%d,%d)", len(d.dir[0]), len(d.dir[1]), dirN[0], dirN[1]))
	}
	if cpuR != d.cpuR || cpuW != d.cpuW {
		panic(fmt.Sprintf("pmem: incremental CPU counts (%d,%d) but flows hold (%d,%d)", d.cpuR, d.cpuW, cpuR, cpuW))
	}
	if len(perKey) != len(d.groups) {
		panic(fmt.Sprintf("pmem: %d incremental DMA groups but flows span %d", len(d.groups), len(perKey)))
	}
	for i, g := range d.groups {
		if perKey[g.key] != len(g.flows) {
			panic(fmt.Sprintf("pmem: group %+v holds %d flows, recount says %d", g.key, len(g.flows), perKey[g.key]))
		}
		if i > 0 && !d.groups[i-1].key.less(g.key) {
			panic(fmt.Sprintf("pmem: group set unordered at %d: %+v !< %+v", i, d.groups[i-1].key, g.key))
		}
	}
}

// invalidate marks the arbitration stale after the flow set changed. It
// reserves the slot an eagerly scheduled completion would take now, so
// the completion recompute later schedules keeps the (time, seq) place of
// the eager schedule. A queued completion due later than now stays
// queued until recompute moves it; one due at or before now is stopped,
// since it would fire before the settle hook. The first change in an
// instant registers recompute as the instant's settle hook; later changes
// in the same instant only reserve a fresh slot. Deferring is exact:
// until the clock moves, advance is a no-op and nothing reads a flow's
// rate.
//
//easyio:hotpath (pmem arbitration invalidation: one call per flow start, cancel or completion round)
func (d *Device) invalidate() {
	if len(d.flows) == 0 || d.due <= d.eng.Now() {
		d.pending.Stop()
		d.pending = sim.Timer{}
	}
	if len(d.flows) == 0 {
		return
	}
	d.slot = d.eng.Reserve()
	if !d.settle {
		d.settle = true
		d.eng.OnSettle(d.recomputeFn)
	}
}

// recompute reallocates bandwidth and moves the pending completion event
// (or schedules one) into its real time and the slot the last flow-set
// change reserved. It runs once per instant in which the flow set
// changed, as the engine's settle hook, with progress already advanced to
// now. Population counts, the direction lists and the ordered DMA group
// set are maintained incrementally by attach/detach, and max-min runs on
// the flows' own fields, so each call is allocation-free — no map
// rebuild, no sort, no staging copy.
//
//easyio:hotpath (pmem bandwidth arbitration: runs once per instant in which the flow set changed)
func (d *Device) recompute() {
	d.settle = false
	if len(d.flows) == 0 {
		return
	}
	if invariants.Enabled {
		d.checkArbCounters()
	}

	// Allocation runs per direction, writes first: Optane reads degrade
	// sharply under concurrent write pressure (media contention), which
	// is why CPU throttling cannot protect L-app reads from a DMA-driven
	// GC (§6.4.3). readScale shrinks every read rate (flow intrinsics,
	// engine caps and the DIMM cap alike) by the write utilization.
	var writeRate float64
	for _, write := range [2]bool{true, false} {
		flows := d.dir[dirIndex(write)]
		if len(flows) == 0 {
			continue // no flows this way: nothing to allocate, no write rate
		}
		cpuN := d.cpuR
		if write {
			cpuN = d.cpuW
		}
		readScale := 1.0
		if !write {
			util := writeRate / d.model.WriteCap
			if util > 1 {
				util = 1
			}
			readScale = 1 - 0.7*util
			if readScale < 0.25 {
				readScale = 0.25
			}
		}

		// Stage 1: flow intrinsics, tightened by per-engine DMA caps.
		// Every CPU flow this way shares one population-dependent rate
		// (or its remote variant); a DMA flow's rate is fixed by its spec.
		// Group membership is insertion-ordered, matching the relative
		// order the flows occupy in d.flows, so the max-min arithmetic
		// visits them exactly as the full rebuild used to.
		cpuRate := d.model.CPURate(write, cpuN)
		remoteRate := cpuRate * d.model.NUMARemotePenalty
		for _, f := range flows {
			r := f.specRate
			if f.spec.Kind == FlowCPU {
				r = cpuRate
				if f.spec.Remote {
					r = remoteRate
				}
			}
			f.limit = r * readScale
		}
		for _, g := range d.groups {
			if g.key.write == write {
				capLimits(g.flows, d.model.DMACap(write, len(g.flows))*readScale)
			}
		}

		// Stage 2: the DIMM direction cap across all flows.
		capLimits(flows, d.model.DirCap(write, d.cpuW)*readScale)
		for _, f := range flows {
			f.rate = f.limit
			if f.rate < 1 {
				f.rate = 1 // never stall completely
			}
			if write {
				writeRate += f.rate
			}
		}
	}

	// Next completion.
	best := -1.0
	for _, f := range d.flows {
		t := f.remaining / f.rate
		if t < 0 {
			t = 0
		}
		if best < 0 || t < best {
			best = t
		}
	}
	ns := sim.Time(best*1e9) + 1 // round up to the next ns
	d.due = d.eng.Now() + ns
	if !d.pending.Retime(d.due, d.slot) {
		d.pending = d.eng.AtSlot(d.due, d.slot, d.completeDueFn)
	}
}

// completeDue fires flows whose bytes have fully streamed.
func (d *Device) completeDue() {
	d.pending = sim.Timer{}
	d.advance()
	fired := d.fired[:0]
	rest := d.flows[:0]
	for _, f := range d.flows {
		if f.remaining <= 0.5 {
			f.done = true
			fired = append(fired, f)
			d.detach(f)
		} else {
			rest = append(rest, f)
		}
	}
	d.flows = rest
	d.invalidate()
	for _, f := range fired {
		if f.spec.OnDone != nil {
			f.spec.OnDone()
		}
	}
	// Retire fired flows to the free list, the same pool Cancel fills:
	// both ways a flow ends recycle it. A handle is dead once OnDone fires
	// or Cancel returns true, so callers either discard the *Flow
	// immediately or (dma.Channel) drop their reference before the OnDone
	// chain returns and at Cancel.
	for i, f := range fired {
		*f = Flow{}
		d.freeFlows = append(d.freeFlows, f)
		fired[i] = nil
	}
	d.fired = fired[:0]
}
