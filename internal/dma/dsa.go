package dma

import (
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// DSA mode (§5 of the paper, left as future work there): instead of
// I/OAT's fixed channels, the Data Streaming Accelerator exposes work
// queues (WQs) holding submitted descriptors and processing engines (PEs)
// that execute them; an arbiter dispatches descriptors from WQs to PEs
// with per-WQ priorities. This lets EasyIO give each L-app its own WQ, so
// one app's burst no longer head-of-line blocks another's (the I/OAT
// limitation called out in §5), and lets the B class be a low-priority WQ
// instead of a suspended channel.

// WQ is one DSA work queue.
type WQ struct {
	dsa      *DSA
	priority int
	cb       int64
	queue    []*Desc

	submitted uint64
	completed uint64
}

// DurableSN reads the WQ's persistent completion buffer.
func (q *WQ) DurableSN() uint64 {
	addr := q.dsa.dev.Read8(q.cb)
	cnt := q.dsa.dev.Read8(q.cb + 8)
	return cnt*RingSize + addr
}

// Submit enqueues descriptors. Unlike I/OAT channels, completion order is
// in-order per WQ (the arbiter dispatches a WQ's head only when its
// previous descriptor completed, keeping the completion-buffer SN
// semantics intact) but WQs proceed independently.
func (q *WQ) Submit(descs ...*Desc) ([]uint64, error) {
	if len(q.queue)+len(descs) > RingSize {
		return nil, ErrRingFull
	}
	sns := make([]uint64, len(descs))
	for i, d := range descs {
		q.submitted++
		sns[i] = q.submitted
		q.queue = append(q.queue, d)
	}
	q.dsa.dispatch()
	return sns, nil
}

// pe is one processing engine.
type pe struct {
	busy bool
	wq   *WQ
}

// DSA is a simulated Data Streaming Accelerator group.
type DSA struct {
	eng      *sim.Engine
	dev      *pmem.Device
	id       int
	wqs      []*WQ
	pes      []*pe
	inflight map[*WQ]bool // WQ has a descriptor on some PE
}

// NewDSA creates a DSA group with the given WQ priorities and PE count.
// Completion buffers occupy [cbBase, cbBase+len(priorities)*CBStride).
func NewDSA(dev *pmem.Device, id int, priorities []int, pes int, cbBase int64) *DSA {
	d := &DSA{eng: dev.Engine(), dev: dev, id: id, inflight: map[*WQ]bool{}}
	for i, p := range priorities {
		d.wqs = append(d.wqs, &WQ{
			dsa: d, priority: p,
			cb: cbBase + int64(i)*CBStride,
		})
	}
	for i := 0; i < pes; i++ {
		d.pes = append(d.pes, &pe{})
	}
	return d
}

// Queue returns WQ i.
func (d *DSA) Queue(i int) *WQ { return d.wqs[i] }

// dispatch assigns queued descriptors to idle PEs, highest priority
// first (strict priority with FIFO within a WQ; one in-flight descriptor
// per WQ preserves SN ordering).
func (d *DSA) dispatch() {
	for {
		var free *pe
		for _, p := range d.pes {
			if !p.busy {
				free = p
				break
			}
		}
		if free == nil {
			return
		}
		var best *WQ
		for _, q := range d.wqs {
			if len(q.queue) == 0 || d.inflight[q] {
				continue
			}
			if best == nil || q.priority > best.priority {
				best = q
			}
		}
		if best == nil {
			return
		}
		desc := best.queue[0]
		best.queue = best.queue[1:]
		d.inflight[best] = true
		free.busy = true
		free.wq = best
		d.run(free, best, desc)
	}
}

// run executes one descriptor on a PE: startup, device flow, functional
// copy, durable completion-buffer advance.
func (d *DSA) run(p *pe, q *WQ, desc *Desc) {
	d.eng.After(d.dev.Model().DMAStartup, func() {
		d.dev.StartFlow(pmem.FlowSpec{
			Write:  desc.Write,
			Kind:   pmem.FlowDMA,
			Bytes:  int64(desc.size()),
			Weight: sizeWeight(desc.size()),
			Group:  d.id,
			OnDone: func() {
				if desc.Buf != nil {
					if desc.Write {
						d.dev.WriteAt(desc.PMOff, desc.Buf[:desc.size()])
					} else {
						d.dev.ReadAt(desc.Buf[:desc.size()], desc.PMOff)
					}
				}
				if desc.Write {
					d.dev.Fence()
				}
				q.completed++
				d.dev.Write8(q.cb, q.completed%RingSize)
				d.dev.Write8(q.cb+8, q.completed/RingSize)
				d.dev.Fence()
				p.busy = false
				p.wq = nil
				delete(d.inflight, q)
				sn := q.completed
				if desc.OnComplete != nil {
					desc.OnComplete(sn)
				}
				d.dispatch()
			},
		})
	})
}
