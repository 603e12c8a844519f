// Package caladan is a simulated userspace scheduling runtime in the
// spirit of Caladan [OSDI '20], the framework the paper modifies (§5):
// lightweight uthreads are multiplexed over physical cores, context
// switches cost ~100 ns, a uthread that issues an asynchronous I/O yields
// back to the runtime, the runtime polls completions at every scheduling
// point, and idle cores steal runnable uthreads from busy ones.
//
// Two blocking styles exist because the paper compares both:
//
//   - Park: the uthread releases its core while waiting (asynchronous
//     I/O in EasyIO) — the freed µs-scale window is harvested by running
//     the next runnable uthread.
//   - Wait: the uthread holds its core while waiting (synchronous
//     filesystems busy-waiting on memcpy/DMA, and EasyIO's single-thread
//     busy-poll latency mode in Fig 8).
package caladan

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// Options configures a Runtime.
type Options struct {
	// Cores is the number of physical cores (required, > 0).
	Cores int
	// CPU is the software cost profile; zero value means DefaultCPU.
	CPU perfmodel.CPU
	// DisableStealing turns work stealing off (used by the Fig 11
	// two-level-locking ablation, which pins uthreads).
	DisableStealing bool
	// Seed drives the deterministic steal-victim choice.
	Seed uint64
}

// Runtime multiplexes uthreads over simulated cores.
type Runtime struct {
	eng      *sim.Engine
	cpu      perfmodel.CPU
	cores    []*Core
	stealing bool
	rng      *rng.Rand
	nextCore int
	live     int
	onIdle   func() // test hook: all uthreads done
}

// New creates a runtime bound to eng.
func New(eng *sim.Engine, opts Options) *Runtime {
	if opts.Cores <= 0 {
		panic("caladan: Options.Cores must be positive")
	}
	zero := perfmodel.CPU{}
	if opts.CPU == zero {
		opts.CPU = perfmodel.DefaultCPU()
	}
	rt := &Runtime{
		eng:      eng,
		cpu:      opts.CPU,
		stealing: !opts.DisableStealing,
		rng:      rng.New(opts.Seed ^ 0xca1ada),
	}
	for i := 0; i < opts.Cores; i++ {
		c := &Core{rt: rt, id: i, idle: true}
		c.dispatchFn = c.dispatch
		c.runCurrentFn = c.runCurrent
		rt.cores = append(rt.cores, c)
	}
	return rt
}

// NumCores returns the core count.
func (rt *Runtime) NumCores() int { return len(rt.cores) }

// Core returns core i (for accounting).
func (rt *Runtime) Core(i int) *Core { return rt.cores[i] }

// Live returns the number of uthreads not yet finished.
func (rt *Runtime) Live() int { return rt.live }

// BusyFraction reports the fraction of [0, now] all cores spent running
// uthread work — the paper's "CPU consumption" metric.
func (rt *Runtime) BusyFraction() float64 {
	now := rt.eng.Now()
	if now == 0 {
		return 0
	}
	var busy sim.Duration
	for _, c := range rt.cores {
		busy += c.busyTime(now)
	}
	return float64(busy) / float64(int64(now)*int64(len(rt.cores)))
}

// Spawn creates a uthread homed on the given core (-1 for round-robin).
// fn runs inside the uthread with a Task handle for blocking primitives.
func (rt *Runtime) Spawn(core int, name string, fn func(*Task)) *UThread {
	if core < 0 {
		core = rt.nextCore
		rt.nextCore = (rt.nextCore + 1) % len(rt.cores)
	}
	if core >= len(rt.cores) {
		panic(fmt.Sprintf("caladan: spawn on core %d of %d", core, len(rt.cores)))
	}
	ut := &UThread{rt: rt, core: rt.cores[core], state: utRunnable, name: name}
	ut.resumeFn = func() { ut.core.runCurrent() }
	ut.wakeFn = ut.Wake
	ut.proc = rt.eng.NewProc(name, func(p *sim.Proc) {
		fn(&Task{ut: ut})
	})
	rt.live++
	ut.core.runq = append(ut.core.runq, ut)
	ut.core.maybeDispatch()
	rt.kickIdleCores()
	return ut
}

// kickIdleCores wakes idle cores when stealable surplus exists elsewhere,
// so queued work spreads without waiting for a busy core's next
// scheduling point.
func (rt *Runtime) kickIdleCores() {
	if !rt.stealing {
		return
	}
	for _, c := range rt.cores {
		if c.idle && !c.dispatchPending && c.cur == nil && len(c.runq) == 0 && c.stealable() {
			c.dispatchPending = true
			c.markBusy()
			rt.eng.After(rt.cpu.UthreadSwitch+rt.cpu.PollCheck, c.dispatchFn)
		}
	}
}

// utState tracks where a uthread is in its lifecycle.
type utState int

const (
	utRunnable utState = iota // in some core's runq
	utRunning                 // current on a core (incl. Compute phases)
	utWaiting                 // holding its core, blocked on Wake
	utParked                  // off-core, blocked on Wake
	utDone
)

// UThread is a lightweight userspace thread.
type UThread struct {
	rt    *Runtime
	proc  *sim.Proc
	core  *Core
	state utState
	name  string

	req         request
	wakePending bool

	// scratch is the per-uthread slot for the filesystem layers'
	// reusable operation state. It only ever holds the uthread's
	// *nova.OpArena (descriptor pool, staging buffers, one completion
	// countdown); caladan cannot import nova, so the slot is opaque.
	// Operations on one uthread are strictly sequential, so a single
	// slot suffices, and a pointer keeps the any-store allocation-free.
	scratch any

	// resumeFn/wakeFn are pre-bound once at Spawn: completion callbacks
	// fire them per request, and a fresh closure there would put an
	// allocation on every wake (the uthread may migrate cores, so they
	// read ut.core at call time, same as the literal they replace).
	resumeFn func()
	wakeFn   func()

	// heldULocks counts ULocks this uthread currently owns. It is
	// maintained only under the easyio_invariants build tag, where the
	// two-level-locking assertion (no completion wait while holding a
	// level-1 lock) consumes it.
	heldULocks int
}

// Name returns the uthread's diagnostic name.
func (ut *UThread) Name() string { return ut.name }

// WakeFn returns the pre-bound Wake callback. Completion paths (DMA
// OnComplete, flow OnDone) should pass this instead of a fresh closure
// or method value, which would allocate per completion.
func (ut *UThread) WakeFn() func() { return ut.wakeFn }

// request is what a uthread asked for when it paused.
type request struct {
	kind    reqKind
	compute sim.Duration
}

type reqKind int

const (
	reqNone reqKind = iota
	reqCompute
	reqYield
	reqPark
	reqWait
)

// Wake makes a blocked uthread runnable. Completion callbacks (DMA, flow
// done) call this from event context; it models the runtime observing the
// completion at its next scheduling point. Waking a running or runnable
// uthread sets a pending flag consumed by the next Park/Wait (no lost
// wakeups).
func (ut *UThread) Wake() {
	switch ut.state {
	case utDone:
		return
	case utRunning, utRunnable:
		ut.wakePending = true
	case utWaiting:
		// Busy-waiting: the core is spinning on the completion; it
		// observes it after one poll check.
		ut.state = utRunning
		ut.rt.eng.After(ut.rt.cpu.PollCheck, ut.resumeFn)
	case utParked:
		ut.state = utRunnable
		home := ut.core
		if home.idle {
			home.runq = append(home.runq, ut)
			home.maybeDispatch()
			return
		}
		if ut.rt.stealing {
			if c := ut.rt.idleCore(); c != nil {
				ut.core = c
				c.runq = append(c.runq, ut)
				c.maybeDispatch()
				return
			}
		}
		home.runq = append(home.runq, ut)
		ut.rt.kickIdleCores()
	}
}

// idleCore returns an idle core, or nil.
func (rt *Runtime) idleCore() *Core {
	for _, c := range rt.cores {
		if c.idle && len(c.runq) == 0 {
			return c
		}
	}
	return nil
}

// Core is one simulated physical core.
type Core struct {
	rt   *Runtime
	id   int
	runq []*UThread
	cur  *UThread
	idle bool

	dispatchPending bool
	busyAccum       sim.Duration
	busySince       sim.Time
	switches        int64

	// dispatchFn/runCurrentFn are the scheduling callbacks pre-bound at
	// core construction: every scheduling point passes one of them to
	// eng.After, and a method value there would allocate a bound-method
	// closure per dispatch (see //easyio:hotpath on the callers).
	dispatchFn   func()
	runCurrentFn func()
}

// QueueLen reports the runnable queue length.
func (c *Core) QueueLen() int { return len(c.runq) }

// Switches reports the number of uthread dispatches.
func (c *Core) Switches() int64 { return c.switches }

// busyTime returns cumulative busy time as of now.
func (c *Core) busyTime(now sim.Time) sim.Duration {
	b := c.busyAccum
	if !c.idle {
		b += sim.Duration(now - c.busySince)
	}
	return b
}

// BusyTime reports cumulative busy time.
func (c *Core) BusyTime() sim.Duration { return c.busyTime(c.rt.eng.Now()) }

func (c *Core) markBusy() {
	if c.idle {
		c.idle = false
		c.busySince = c.rt.eng.Now()
	}
}

func (c *Core) markIdle() {
	if !c.idle {
		c.busyAccum += sim.Duration(c.rt.eng.Now() - c.busySince)
		c.idle = true
	}
}

// maybeDispatch schedules a dispatch if the core is idle with work queued.
func (c *Core) maybeDispatch() {
	if c.dispatchPending || c.cur != nil || len(c.runq) == 0 {
		return
	}
	c.dispatchPending = true
	c.markBusy()
	// Context switch + completion poll at every scheduling point.
	c.rt.eng.After(c.rt.cpu.UthreadSwitch+c.rt.cpu.PollCheck, c.dispatchFn)
}

// dispatch installs the next runnable uthread and runs it.
func (c *Core) dispatch() {
	c.dispatchPending = false
	if c.cur != nil {
		return
	}
	if len(c.runq) == 0 {
		if !c.steal() {
			c.markIdle()
			return
		}
	}
	// Shift-pop so the backing array is reused: a [1:] reslice would make
	// every later Wake append reallocate the queue.
	ut := c.runq[0]
	copy(c.runq, c.runq[1:])
	c.runq[len(c.runq)-1] = nil
	c.runq = c.runq[:len(c.runq)-1]
	ut.core = c
	ut.state = utRunning
	c.cur = ut
	c.switches++
	c.markBusy()
	c.runCurrent()
}

// steal takes one uthread from the tail of the most loaded core's queue.
func (c *Core) steal() bool {
	if !c.rt.stealing {
		return false
	}
	var victim *Core
	best := 0
	for _, v := range c.rt.cores {
		if v != c && len(v.runq) > best {
			victim, best = v, len(v.runq)
		}
	}
	if victim == nil {
		return false
	}
	ut := victim.runq[len(victim.runq)-1]
	victim.runq = victim.runq[:len(victim.runq)-1]
	ut.core = c
	c.runq = append(c.runq, ut)
	return true
}

// runCurrent resumes the current uthread and handles the request it pauses
// with. Runs from event context.
func (c *Core) runCurrent() {
	ut := c.cur
	if ut == nil {
		return
	}
	alive := ut.proc.Resume()
	if !alive {
		ut.state = utDone
		c.cur = nil
		c.rt.live--
		if c.rt.live == 0 && c.rt.onIdle != nil {
			c.rt.onIdle()
		}
		c.next()
		return
	}
	switch ut.req.kind {
	case reqCompute:
		d := ut.req.compute
		c.rt.eng.After(d, c.runCurrentFn)
	case reqYield:
		ut.state = utRunnable
		c.cur = nil
		c.runq = append(c.runq, ut)
		c.next()
	case reqPark:
		if ut.wakePending {
			ut.wakePending = false
			ut.state = utRunnable
			c.cur = nil
			c.runq = append(c.runq, ut)
			c.next()
			return
		}
		ut.state = utParked
		c.cur = nil
		c.next()
	case reqWait:
		if ut.wakePending {
			ut.wakePending = false
			c.rt.eng.After(c.rt.cpu.PollCheck, c.runCurrentFn)
			return
		}
		ut.state = utWaiting
		// Core spins: stays busy, runs nothing else.
	default:
		panic("caladan: uthread paused without a request")
	}
}

// next triggers the following dispatch (or idles the core).
func (c *Core) next() {
	if len(c.runq) > 0 || c.stealable() {
		c.dispatchPending = true
		c.rt.eng.After(c.rt.cpu.UthreadSwitch+c.rt.cpu.PollCheck, c.dispatchFn)
		return
	}
	c.markIdle()
}

func (c *Core) stealable() bool {
	if !c.rt.stealing {
		return false
	}
	for _, v := range c.rt.cores {
		if v != c && len(v.runq) > 0 {
			return true
		}
	}
	return false
}

// Task is the handle a uthread's body uses to interact with the runtime.
type Task struct {
	ut *UThread
}

// Scratch returns the uthread's opaque filesystem scratch slot.
func (t *Task) Scratch() any { return t.ut.scratch }

// SetScratch installs the uthread's filesystem scratch. Store pointers
// only: a pointer-shaped value boxes for free.
func (t *Task) SetScratch(v any) { t.ut.scratch = v }

// Engine returns the simulation engine.
func (t *Task) Engine() *sim.Engine { return t.ut.rt.eng }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.ut.rt.eng.Now() }

// UThread returns the underlying uthread (for Wake by completion
// callbacks).
func (t *Task) UThread() *UThread { return t.ut }

// HeldULocks reports how many ULocks the uthread currently owns. The
// count is maintained only under the easyio_invariants build tag and is
// always zero otherwise.
func (t *Task) HeldULocks() int { return t.ut.heldULocks }

// Compute occupies the core for d of application/filesystem CPU work.
// The uthread runs the event loop itself for the window when it can
// (sim.Proc.Host); otherwise, when the window ends past the enclosing
// loop's limit, it pauses and its core resumes it after d.
func (t *Task) Compute(d sim.Duration) {
	if d <= 0 {
		return
	}
	if t.ut.proc.Host(d) {
		return
	}
	t.ut.req = request{kind: reqCompute, compute: d}
	t.ut.proc.Pause()
}

// Yield places the uthread at the back of its core's run queue
// (thread_yield in Caladan) and runs the next runnable uthread.
func (t *Task) Yield() {
	t.ut.req = request{kind: reqYield}
	t.ut.proc.Pause()
}

// Park releases the core until Wake. This is the asynchronous-I/O blocking
// style: the freed window is harvested by other uthreads.
func (t *Task) Park() {
	t.ut.req = request{kind: reqPark}
	t.ut.proc.Pause()
}

// Wait blocks while *holding* the core (busy-polling) until Wake. This is
// the synchronous-I/O blocking style.
func (t *Task) Wait() {
	t.ut.req = request{kind: reqWait}
	t.ut.proc.Pause()
}

// Sleep parks the uthread for d of virtual time.
func (t *Task) Sleep(d sim.Duration) {
	t.Engine().After(d, t.ut.wakeFn)
	t.Park()
}
