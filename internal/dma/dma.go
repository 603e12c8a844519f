// Package dma simulates an Intel I/OAT-style on-chip DMA engine: a set of
// channels, each with a FIFO hardware descriptor ring, MMIO-style
// submission, and a 64-bit completion buffer the engine advances as
// descriptors finish (§2.2 of the paper).
//
// EasyIO-specific properties modelled here:
//
//   - Completion buffers live in persistent memory at a caller-chosen
//     offset; their value is a monotonic sequence number (ring index plus
//     wraparound counter, §4.2), so they survive crashes and can witness
//     write durability.
//   - Channels serve strictly in order: a small descriptor queued behind a
//     bulk one suffers head-of-line blocking (Fig 4).
//   - The engine's aggregate bandwidth is direction-asymmetric and
//     channel-count dependent (Fig 3); arbitration is delegated to the
//     pmem device's flow model with per-engine group caps.
//   - CHANCMD suspend/resume: a suspended channel either finishes or
//     restarts its current descriptor depending on progress (§4.4).
//   - DSA mode (§5, dsa.go): a work queue is a channel whose descriptors
//     also need one of its group's processing engines, granted by
//     priority; otherwise it is the same ring, SN and completion buffer.
package dma

import (
	"errors"
	"fmt"
	"math"

	"github.com/easyio-sim/easyio/internal/invariants"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// RingSize is the number of descriptor slots in each channel's hardware
// queue.
const RingSize = 256

// CBStride is the bytes of persistent completion-buffer state per channel
// (ADDR and CNT words).
const CBStride = 16

// ErrRingFull is returned when a submission does not fit in the ring.
var ErrRingFull = errors.New("dma: hardware queue full")

// Desc describes one DMA transfer.
type Desc struct {
	// Write is true for DRAM->PM (data lands durably in slow memory).
	Write bool
	// PMOff is the slow-memory address.
	PMOff int64
	// Buf is the DRAM buffer. It may be nil for timing-only transfers
	// (benchmarks that do not need functional contents); Size must then
	// be set. When Buf is non-nil, Size defaults to len(Buf).
	Buf  []byte
	Size int
	// OnComplete fires from event context after the transfer is durable
	// and the completion buffer has advanced past this descriptor's SN.
	OnComplete func(sn uint64)
}

func (d *Desc) size() int {
	if d.Buf != nil && d.Size == 0 {
		return len(d.Buf)
	}
	return d.Size
}

// Engine is one socket's DMA engine.
type Engine struct {
	eng   *sim.Engine
	dev   *pmem.Device
	id    int
	chans []*Channel
}

// NewEngine creates an engine with nchans channels whose completion
// buffers occupy [cbBase, cbBase+nchans*CBStride) on dev. id distinguishes
// engines for per-engine bandwidth caps.
func NewEngine(dev *pmem.Device, id, nchans int, cbBase int64) *Engine {
	e := &Engine{eng: dev.Engine(), dev: dev, id: id}
	for i := 0; i < nchans; i++ {
		c := &Channel{
			eng: e,
			id:  i,
			cb:  cbBase + int64(i)*CBStride,
		}
		c.startupFn = c.startCur
		c.flowDoneFn = c.finishCurFlow
		e.chans = append(e.chans, c)
	}
	return e
}

// ID returns the engine's group id.
func (e *Engine) ID() int { return e.id }

// NumChannels returns the channel count.
func (e *Engine) NumChannels() int { return len(e.chans) }

// Channel returns channel i.
func (e *Engine) Channel(i int) *Channel { return e.chans[i] }

// Channel is one hardware channel: a descriptor ring served FIFO.
type Channel struct {
	eng *Engine
	id  int
	cb  int64 // pmem offset of {ADDR, CNT}

	queue     []*Desc // waiting descriptors (excluding cur)
	cur       *Desc
	curFlow   *pmem.Flow
	curInWait bool // cur is in its startup delay
	submitted uint64
	completed uint64
	bytesDone int64
	suspended bool
	// finishCur marks that the in-flight descriptor should complete even
	// though the channel is suspended (progress was past the point of no
	// return when CHANCMD was written).
	finishCur bool
	// arb is the DSA group's processing-engine pool this channel (a work
	// queue) draws from, nil on I/OAT; priority orders its grants.
	arb      *arbiter
	priority int

	// sns is Submit's reusable SN buffer: the returned slice is valid
	// until the next Submit on this channel (callers consume it before
	// yielding). startupFn/flowDoneFn are the startup-delay and
	// flow-completion callbacks, pre-bound at construction so the
	// per-descriptor path never allocates a closure; both read c.cur at
	// fire time, which requeue/kick keep pointed at the right descriptor.
	sns        []uint64
	startupFn  func()
	flowDoneFn func()
}

// ID returns the channel index within its engine.
func (c *Channel) ID() int { return c.id }

// QueueDepth reports queued plus in-flight descriptors. EasyIO's read
// admission control (Listing 2) offloads only to channels with depth < 2.
func (c *Channel) QueueDepth() int {
	d := len(c.queue)
	if c.cur != nil {
		d++
	}
	return d
}

// CompletedSN returns the volatile count of completed descriptors.
func (c *Channel) CompletedSN() uint64 { return c.completed }

// DurableSN reads the persistent completion buffer: CNT*RingSize + ADDR,
// the SN of the most recently *durable* completion. After a crash this is
// the recovery witness (§4.2).
func (c *Channel) DurableSN() uint64 {
	addr := c.eng.dev.Read8(c.cb)
	cnt := c.eng.dev.Read8(c.cb + 8)
	return cnt*RingSize + addr
}

// BytesCompleted returns cumulative payload bytes moved; the channel
// manager diffs this per epoch for bandwidth accounting (§4.4).
func (c *Channel) BytesCompleted() int64 { return c.bytesDone }

// Suspended reports whether the channel is halted via CHANCMD.
func (c *Channel) Suspended() bool { return c.suspended }

// Submit enqueues descriptors onto the channel ring in order and returns
// the SN assigned to each. The caller is responsible for charging CPU
// submission cost (perfmodel.CPU.DMASubmit*). If the batch does not fit,
// nothing is enqueued and ErrRingFull is returned.
func (c *Channel) Submit(descs ...*Desc) ([]uint64, error) {
	if len(descs) == 0 {
		return nil, nil
	}
	if c.QueueDepth()+len(descs) > RingSize {
		return nil, ErrRingFull
	}
	if cap(c.sns) < len(descs) {
		c.growSNs(len(descs))
	}
	sns := c.sns[:len(descs)]
	for i, d := range descs {
		if d.size() < 0 {
			panic(fmt.Sprintf("dma: negative descriptor size %d", d.size()))
		}
		c.submitted++
		sns[i] = c.submitted
		c.queue = append(c.queue, d)
	}
	c.kick()
	return sns, nil
}

// growSNs raises the SN buffer high-water mark. Batch sizes are bounded
// by RingSize, so the buffer stops growing after the first full batch.
//
//easyio:coldpath (SN-buffer high-water growth; bounded by RingSize)
func (c *Channel) growSNs(n int) {
	c.sns = make([]uint64, n)
}

// sizeWeight biases device bandwidth toward large descriptors: the DMA
// engine serves bulk transfers disproportionately, which is the root cause
// of the §2.2 interference spikes.
func sizeWeight(size int) float64 {
	w := math.Sqrt(float64(size) / 4096)
	if w < 1 {
		return 1
	}
	if w > 32 {
		return 32
	}
	return w
}

// ready reports whether the channel is idle, running and has work.
func (c *Channel) ready() bool {
	return c.cur == nil && !c.suspended && len(c.queue) > 0
}

// kick starts processing the queue head if the channel is idle and
// running. A work queue instead lets its arbiter grant idle processing
// engines, which may serve a higher-priority queue first.
func (c *Channel) kick() {
	if c.arb != nil {
		c.arb.dispatch()
		return
	}
	if c.ready() {
		c.start()
	}
}

// start pops the queue head into c.cur and schedules its startup delay.
func (c *Channel) start() {
	// Shift-pop keeps the backing array; a [1:] reslice would force later
	// Submit appends to reallocate per pop.
	c.cur = c.queue[0]
	copy(c.queue, c.queue[1:])
	c.queue[len(c.queue)-1] = nil
	c.queue = c.queue[:len(c.queue)-1]
	c.curInWait = true
	c.eng.eng.After(c.eng.dev.Model().DMAStartup, c.startupFn)
}

// startCur fires when the startup delay of the descriptor at c.cur
// elapses. Suspend during the wait requeues the descriptor to the queue
// head and clears curInWait, so a stale firing (or the duplicate event a
// suspend/resume cycle leaves behind) sees curInWait false — or the same
// descriptor re-kicked, which the original per-kick closure started
// identically.
func (c *Channel) startCur() {
	d := c.cur
	if d == nil || !c.curInWait {
		return // suspended and requeued during startup
	}
	c.curInWait = false
	c.curFlow = c.eng.dev.StartFlow(pmem.FlowSpec{
		Write:  d.Write,
		Kind:   pmem.FlowDMA,
		Bytes:  int64(d.size()),
		Weight: sizeWeight(d.size()),
		Group:  c.eng.id,
		OnDone: c.flowDoneFn,
	})
}

// finishCurFlow completes the descriptor whose flow just drained. The
// flow's OnDone fires only while that descriptor is still installed at
// c.cur: Suspend either cancels the flow (OnDone never fires) or lets it
// run to completion with c.cur left in place.
func (c *Channel) finishCurFlow() {
	c.finish(c.cur)
}

// finish completes the in-flight descriptor: functional copy, durable
// completion-buffer advance, user callback, then the next descriptor.
func (c *Channel) finish(d *Desc) {
	dev := c.eng.dev
	// Functional copy, atomic at completion time.
	if d.Buf != nil {
		if d.Write {
			dev.WriteAt(d.PMOff, d.Buf[:d.size()])
		} else {
			dev.ReadAt(d.Buf[:d.size()], d.PMOff)
		}
	} else if d.Write && d.size() > 0 {
		// Timing-only writes still dirty the persistence stream so crash
		// images cannot resurrect stale bytes; record a zero page marker.
		// (No-op for the functional plane beyond zeroing.)
		var zero [1]byte
		dev.WriteAt(d.PMOff, zero[:])
	}
	if d.Write {
		// Data must be durable before the completion buffer advances.
		dev.Fence()
	}
	c.completed++
	c.bytesDone += int64(d.size())
	dev.Write8(c.cb, c.completed%RingSize)
	dev.Write8(c.cb+8, c.completed/RingSize)
	dev.Fence()

	c.cur = nil
	c.curFlow = nil
	if c.arb != nil {
		c.arb.idle++ // OnComplete's submissions may take the engine
	}
	sn := c.completed
	if invariants.Enabled && c.suspended && !c.finishCur {
		// Suspend either cancels the flow (its OnDone never fires) or
		// sets finishCur, so a suspended channel finishes nothing else.
		panic("dma: descriptor finished on a suspended channel without finishCur")
	}
	c.finishCur = false
	if d.OnComplete != nil {
		d.OnComplete(sn)
	}
	// A suspended channel starts nothing, but the engine it freed may
	// serve another work queue.
	c.kick()
}

// Suspend halts the channel via CHANCMD. If a descriptor is mid-transfer,
// it either runs to completion (progress >= 0.5) or is cancelled and will
// restart from scratch on Resume — matching the observed hardware
// behaviour that motivates B-app I/O splitting (§4.4). The CPU cost
// (74 ns) is charged by the caller.
func (c *Channel) Suspend() {
	if c.suspended {
		return
	}
	c.suspended = true
	if c.cur == nil {
		return
	}
	if c.curInWait {
		// Not started: push back to the queue head.
		c.requeueCur()
		return
	}
	if c.curFlow != nil && c.curFlow.Progress() < 0.5 {
		c.curFlow.Cancel()
		c.curFlow = nil
		c.requeueCur()
		return
	}
	// Let it finish; finish() will not kick while suspended.
	c.finishCur = true
}

func (c *Channel) requeueCur() {
	d := c.cur
	c.cur = nil
	c.curInWait = false
	c.queue = append(c.queue, nil)
	copy(c.queue[1:], c.queue)
	c.queue[0] = d
	if c.arb != nil {
		c.arb.idle++ // the engine goes to another waiting work queue
		c.arb.dispatch()
	}
}

// Resume restarts a suspended channel.
func (c *Channel) Resume() {
	if !c.suspended {
		return
	}
	c.suspended = false
	if c.cur == nil {
		c.kick()
	}
}
