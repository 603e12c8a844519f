// Package odinfs reimplements the delegation baseline Odinfs [OSDI '22]
// (§6.1): data movement is delegated to background kernel threads that
// run on reserved cores (12 per NUMA node in the paper), with large I/O
// split into chunks performed in parallel. The application-facing
// interface stays synchronous — the app core busy-waits while the
// delegates move data — so delegation buys bandwidth parallelism but not
// CPU savings.
package odinfs

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// DefaultReservedPerNode matches the paper's Odinfs configuration.
const DefaultReservedPerNode = 12

// ChunkSize is the delegation split granularity: small enough that a
// 64 KB operation parallelizes across several delegates (the source of
// Odinfs's large-I/O latency advantage over NOVA, Fig 8).
const ChunkSize = 16 << 10

// DelegationEnqueue is the per-request handoff cost charged to the app
// core (ring buffer insert + doorbell).
const DelegationEnqueue = 400 * sim.Nanosecond

// FS wraps NOVA with a delegation mover. Construct with New, then call
// StartWorkers once a runtime exists.
type FS struct {
	*nova.FS
	workers []*worker
	next    int

	// freeReqs is an intrusive free list: steady state draws every chunk
	// request from it, and the population stops growing at the peak
	// count of chunks in flight. Chunks are shared by every app uthread
	// and delegate, so the list lives here and not in a uthread's arena.
	freeReqs *request
}

// request is one chunk of data movement.
type request struct {
	write bool
	bytes int64
	pmOff int64
	buf   []byte // functional payload (nil in ephemeral mode)
	// done is the issuing uthread's arena countdown: the app uthread
	// waits until every chunk it enqueued has been moved.
	done func(uint64)
	next *request
}

// worker is one delegation thread pinned to a reserved core.
type worker struct {
	fs    *FS
	queue []*request
	ut    *caladan.UThread
	idle  bool
}

// New mounts an Odinfs instance over a formatted device.
func New(dev *pmem.Device, opts nova.Options) (*FS, error) {
	fs := &FS{}
	nfs, err := nova.Mount(dev, &mover{fs: fs}, opts)
	if err != nil {
		return nil, err
	}
	fs.FS = nfs
	return fs, nil
}

// StartWorkers spawns delegation uthreads pinned to the given cores
// (conventionally the last 12 per node). They never yield to application
// work: the cores are reserved.
func (fs *FS) StartWorkers(rt *caladan.Runtime, cores []int) {
	for _, c := range cores {
		w := &worker{fs: fs, idle: true}
		w.ut = rt.Spawn(c, "odinfs-delegate", func(task *caladan.Task) {
			w.loop(task)
		})
		fs.workers = append(fs.workers, w)
	}
}

// loop serves the delegate's queue until the simulation ends.
//
//easyio:hotpath (Odinfs delegate: one iteration per 16 KB chunk moved)
func (w *worker) loop(task *caladan.Task) {
	wake := task.UThread().WakeFn()
	for {
		if len(w.queue) == 0 {
			w.idle = true
			task.Park()
			continue
		}
		// Shift-pop keeps the backing array; a [1:] reslice would force
		// later enqueue appends to reallocate.
		req := w.queue[0]
		copy(w.queue, w.queue[1:])
		w.queue[len(w.queue)-1] = nil
		w.queue = w.queue[:len(w.queue)-1]
		// The delegate core performs the memcpy itself (CPU flow).
		w.fs.Device().StartFlow(pmem.FlowSpec{
			Write:  req.write,
			Kind:   pmem.FlowCPU,
			Bytes:  req.bytes,
			OnDone: wake,
		})
		task.Wait()
		if req.buf != nil {
			if req.write {
				w.fs.Device().WriteAt(req.pmOff, req.buf)
			} else {
				w.fs.Device().ReadAt(req.buf, req.pmOff)
			}
		}
		done := req.done
		w.fs.freeReq(req)
		done(0)
	}
}

// enqueue hands a chunk to the next delegate round-robin.
func (fs *FS) enqueue(req *request) {
	if len(fs.workers) == 0 {
		panic("odinfs: StartWorkers not called")
	}
	w := fs.workers[fs.next%len(fs.workers)]
	fs.next++
	w.queue = append(w.queue, req)
	if w.idle {
		// Clear idle *here*: a second enqueue before the delegate
		// redispatches must not double-wake it, or the stale wake would
		// make the delegate's next flow-wait return early.
		w.idle = false
		w.ut.Wake()
	}
}

// mover implements nova.DataMover by splitting transfers into ChunkSize
// pieces across the delegates while the app core busy-waits.
type mover struct {
	fs *FS
}

func (m *mover) WriteData(t *caladan.Task, nfs *nova.FS, runs []nova.Run, buf []byte) {
	m.move(t, nfs, runs, buf, true)
}

func (m *mover) ReadData(t *caladan.Task, nfs *nova.FS, runs []nova.Run, plan nova.ReadPlan) {
	m.move(t, nfs, runs, nil, false)
	plan.CopyOut(nfs, runs)
}

func (m *mover) move(t *caladan.Task, nfs *nova.FS, runs []nova.Run, buf []byte, write bool) {
	bytes := nova.DataBytes(runs)
	if bytes == 0 {
		return
	}
	if t == nil {
		// Functional context: apply writes directly.
		if write && buf != nil {
			pos := int64(0)
			for _, r := range runs {
				if r.Off >= 0 {
					m.fs.Device().WriteAt(r.Off, buf[pos:pos+r.Bytes()])
				}
				pos += r.Bytes()
			}
		}
		return
	}
	// Chunks are counted and armed on the uthread's arena countdown
	// first, and built and enqueued after the submission charge, so a
	// delegate never starts before the app core has paid for the handoff.
	n := 0
	for _, r := range runs {
		if r.Off >= 0 {
			n += int((r.Bytes() + ChunkSize - 1) / ChunkSize)
		}
	}
	done := nfs.Arena(t).Arm(t.UThread(), n)
	t.Compute(DelegationEnqueue + sim.Duration(n)*50*sim.Nanosecond)
	pos := int64(0)
	for _, r := range runs {
		for c := int64(0); r.Off >= 0 && c < r.Bytes(); c += ChunkSize {
			sz := min(r.Bytes()-c, ChunkSize)
			req := m.fs.allocReq()
			req.write, req.bytes, req.pmOff, req.done = write, sz, r.Off+c, done
			if write && buf != nil {
				req.buf = buf[pos+c : pos+c+sz]
			}
			m.fs.enqueue(req)
		}
		pos += r.Bytes()
	}
	t.Wait() // synchronous interface: the app core spins
}

// allocReq takes a cleared chunk request from the free list, growing the
// population when it runs dry (bounded by the peak count of chunks in
// flight). The mover is reached only through nova.DataMover, which no
// hot path's static summary follows; TestMoverNoAllocs pins it.
func (fs *FS) allocReq() *request {
	r := fs.freeReqs
	if r == nil {
		return &request{}
	}
	fs.freeReqs = r.next
	r.next = nil
	return r
}

// freeReq returns a moved chunk to the free list. The delegate drops its
// reference first, and the payload slice is released with it.
func (fs *FS) freeReq(r *request) {
	*r = request{next: fs.freeReqs}
	fs.freeReqs = r
}

// The Odinfs FS satisfies the shared workload-facing interface.
var _ fsapi.FileSystem = (*FS)(nil)
