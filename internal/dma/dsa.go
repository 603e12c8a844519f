package dma

import "github.com/easyio-sim/easyio/internal/pmem"

// DSA mode (§5 of the paper, left as future work there): instead of
// I/OAT's fixed channels, the Data Streaming Accelerator exposes work
// queues (WQs) holding submitted descriptors and processing engines (PEs)
// that execute them; an arbiter dispatches descriptors from WQs to PEs
// with per-WQ priorities. This lets EasyIO give each L-app its own WQ, so
// one app's burst no longer head-of-line blocks another's (the I/OAT
// limitation called out in §5), and lets the B class be a low-priority WQ
// instead of a suspended channel.
//
// A WQ is a Channel: its descriptors complete in order, one at a time,
// through the channel's ring, SNs and completion buffer. The only
// addition is the arbiter, which a queue head must take a PE from before
// it starts, so WQs proceed independently while PEs last.

// arbiter is a DSA group's pool of idle PEs, shared by its WQs.
type arbiter struct {
	idle  int
	chans []*Channel
}

// dispatch grants idle PEs to waiting WQs, highest priority first (the
// first WQ on a tie); suspended WQs wait.
func (a *arbiter) dispatch() {
	for a.idle > 0 {
		var best *Channel
		for _, c := range a.chans {
			if c.ready() && (best == nil || c.priority > best.priority) {
				best = c
			}
		}
		if best == nil {
			return
		}
		a.idle--
		best.start()
	}
}

// NewDSA creates a DSA group with the given WQ priorities and PE count:
// channel i of the returned engine is WQ i. Completion buffers occupy
// [cbBase, cbBase+len(priorities)*CBStride).
func NewDSA(dev *pmem.Device, id int, priorities []int, pes int, cbBase int64) *Engine {
	e := NewEngine(dev, id, len(priorities), cbBase)
	a := &arbiter{idle: pes, chans: e.chans}
	for i, c := range e.chans {
		c.arb = a
		c.priority = priorities[i]
	}
	return e
}
