// Package sim provides the deterministic discrete-event simulation kernel
// that underpins the EasyIO reproduction.
//
// All hardware (slow memory, DMA engines) and software (uthread scheduler,
// filesystems, workloads) advance on a shared virtual clock measured in
// nanoseconds. Events execute on a single OS goroutine in (time, sequence)
// order, so every run with the same seed is bit-for-bit reproducible —
// something wall-clock goroutines cannot offer at the µs timescales the
// paper studies.
//
// Arbitrary sequential Go code participates through a Proc: a runtime
// coroutine (iter.Pull, proc.go) that is resumed synchronously from event
// context and hands control back whenever it blocks on a simulation
// primitive (Sleep, Park, or a higher-level primitive built on Pause).
// Exactly one Proc runs at a time, preserving determinism, and a panic in
// a proc surfaces from Engine.Run on the caller's goroutine.
//
// The kernel's hot path is allocation-free in steady state: fired and
// cancelled events are recycled through a free list (Timer handles stay
// safe across reuse via a generation counter), and Sleep/StartProc resume
// through a typed event rather than a capturing closure.
package sim

import (
	"fmt"
	"sort"

	"github.com/easyio-sim/easyio/internal/invariants"
)

// Time is an absolute virtual timestamp in nanoseconds since simulation
// start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenience duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros reports d as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Event kinds. evFunc runs a callback closure; evResume resumes one proc.
// The typed resume kind keeps the Sleep path closure-free.
const (
	evFunc uint8 = iota
	evResume
)

type event struct {
	t   Time
	seq uint64
	// idx is the event's position in Engine.q while it is queued; the
	// heap's sifts keep it current so Timer.Stop can remove in place.
	idx int
	// gen invalidates stale Timer handles across free-list reuse: a
	// Timer captures the generation at schedule time and Stop refuses to
	// act once the event has fired or been cancelled and recycled.
	gen  uint32
	kind uint8
	fn   func()
	proc *Proc // evResume target
}

// before is the dispatch order: time, then sequence. Sequence numbers are
// unique, so the order is total and ties never depend on heap shape.
func before(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventHeap is a hand-rolled indexed binary min-heap ordered by before.
// Avoiding container/heap keeps interface dispatch off the hot path.
//
// A binary heap suits the engine's traffic: across the benchmark
// workloads the queue holds about 10 events on average and at most 40,
// so a sift is a handful of comparisons. A timer wheel's slot and cascade
// bookkeeping pays off only with thousands of outstanding timers.
type eventHeap []*event

// up sifts h[i] toward the root, moving parents down into the hole.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		parent := h[p]
		if !before(ev, parent) {
			break
		}
		h[i] = parent
		parent.idx = i
		i = p
	}
	h[i] = ev
	ev.idx = i
}

// down sifts h[i] toward the leaves, moving the lesser child up into the
// hole.
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		child := h[c]
		if r := c + 1; r < n && before(h[r], child) {
			c, child = r, h[r]
		}
		if !before(child, ev) {
			break
		}
		h[i] = child
		child.idx = i
		i = c
	}
	h[i] = ev
	ev.idx = i
}

// push queues ev. The append grows the engine-owned slice only until it
// reaches the peak resident count.
//
//easyio:hotpath (event schedule: one call per event scheduled)
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event. A queue of one — a
// self-rescheduling timer chain — empties without a sift.
//
//easyio:hotpath (event fire: one call per event dispatched)
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		old[:n].down(0)
	}
	return ev
}

// remove deletes the event at position i. The last event fills the hole
// and sifts whichever way restores the order: down if it is later than
// its new children, up if it is earlier than its new parent.
//
//easyio:hotpath (timer cancel: one call per Timer.Stop that prevents a fire)
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i == n {
		return
	}
	old[i] = last
	old[:n].down(i)
	if last.idx == i {
		old[:n].up(i)
	}
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	// q is the pending-event queue, yielding events in (time, seq) order.
	// Cancelled events leave it at once, so len(q) is the pending count.
	q     eventHeap
	seq   uint64
	free  []*event
	procs map[*Proc]struct{}
	// procSeq numbers procs at creation so Shutdown can kill the
	// surviving set in a deterministic (creation) order.
	procSeq uint64
	stopped bool
	// inEvent guards against Proc misuse (Resume outside event context).
	inEvent bool
	// running is the proc currently executing a slice, tracked only when
	// the easyio_invariants build tag asserts single-running-proc.
	running *Proc
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an event from the free list (or the heap allocator), stamps
// it with the next sequence number, and schedules it at absolute time t
// (clamped to now).
func (e *Engine) alloc(t Time) *event {
	if t < e.now {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = newEvent()
	}
	e.seq++
	ev.t = t
	ev.seq = e.seq
	e.q.push(ev)
	return ev
}

// newEvent grows the event population when the free list runs dry — a
// high-water event, not steady state: once the pool matches the peak
// in-flight count, alloc recycles forever.
//
//easyio:coldpath (event free-list refill; population reaches high water and stays there)
func newEvent() *event {
	return new(event)
}

// release recycles a fired or cancelled event into the free list. The
// generation bump invalidates every Timer handle still pointing at it.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.kind = evFunc
	ev.fn = nil
	ev.proc = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t (clamped to now).
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.alloc(t)
	ev.kind = evFunc
	ev.fn = fn
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now (clamped to zero).
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+Time(d), fn)
}

// scheduleResume schedules a typed resume event for p, avoiding the
// closure a callback event would capture.
func (e *Engine) scheduleResume(p *Proc, d Duration) {
	ev := e.alloc(e.now + Time(d))
	ev.kind = evResume
	ev.proc = p
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is an already-expired timer. Timers are values; copying one copies
// the handle, not the event.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the
// cancellation prevented the event from running: false when the timer is
// zero, already stopped, or its event already fired. The event leaves the
// queue and returns to the free list at once; the generation check keeps
// the handle inert after that, even once the struct is reused.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	e := t.eng
	if invariants.Enabled && (ev.idx >= len(e.q) || e.q[ev.idx] != ev) {
		panic(fmt.Sprintf("sim: stopped event at %v is not at its queue index %d", ev.t, ev.idx))
	}
	e.q.remove(ev.idx)
	e.release(ev)
	return true
}

// step runs the earliest pending event. It reports false if none remain,
// none is due by deadline (when bounded), or the engine was stopped.
//
//easyio:hotpath (sim event dispatch: every event in every run goes through here)
func (e *Engine) step(deadline Time, bounded bool) bool {
	if len(e.q) == 0 || (bounded && e.q[0].t > deadline) {
		return false
	}
	ev := e.q.pop()
	if invariants.Enabled {
		if ev.t < e.now {
			panic(fmt.Sprintf("sim: event queue yielded time %v before now %v", ev.t, e.now))
		}
	}
	e.now = ev.t
	// Capture the payload and recycle the struct before dispatch: once
	// the event has fired, stale Timer handles must see the new
	// generation, and the pool slot can back events scheduled from inside
	// the callback.
	kind, fn, proc := ev.kind, ev.fn, ev.proc
	e.release(ev)
	e.inEvent = true
	if kind == evResume {
		proc.Resume()
	} else {
		fn()
	}
	e.inEvent = false
	return !e.stopped
}

// Run processes events until none remain or Stop is called.
func (e *Engine) Run() {
	for e.step(0, false) {
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to t (if it is in the future).
func (e *Engine) RunUntil(t Time) {
	for e.step(t, true) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor processes events for d nanoseconds of virtual time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + Time(d)) }

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Sequence returns the total number of events ever scheduled — a cheap
// determinism witness: two runs of the same scenario with the same seed
// must end with identical sequence counters.
func (e *Engine) Sequence() uint64 { return e.seq }

// Pending reports the number of scheduled, not-yet-fired, not-cancelled
// events.
func (e *Engine) Pending() int { return len(e.q) }

// Shutdown kills every live Proc, unwinding each parked coroutine so its
// deferred functions run and its stack is released. It must be called
// outside event context (after Run returns). The engine remains usable
// for inspection but no further events should be scheduled.
func (e *Engine) Shutdown() {
	// Kill in creation order: kill() unwinds each coroutine, and unwind
	// side effects (deferred cleanups) deserve the same determinism as the
	// run itself.
	live := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].pseq < live[j].pseq })
	for _, p := range live {
		p.kill()
	}
}

// ---------------------------------------------------------------------------
// Procs: deterministic coroutines.

type procState int

const (
	procNew procState = iota
	procPaused
	procRunning
	procDone
)

// killed is the panic sentinel used to unwind a Proc on Shutdown.
type killed struct{}

// Proc is a coroutine executing sequential Go code inside the simulation.
// Exactly one Proc runs at any instant; it runs in zero virtual time until
// it blocks on a primitive, at which point control returns to the engine.
type Proc struct {
	eng   *Engine
	name  string
	state procState
	fn    func(*Proc)
	// The coroutine (proc.go): next runs fn until its next Pause, stop
	// unwinds a paused fn, and yield, set when fn first runs, is how Pause
	// hands control back to the caller of next.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// pseq is the creation sequence number; Shutdown kills survivors in
	// this order so teardown is as deterministic as the run.
	pseq uint64

	// tag lets runtimes attach the reason the proc paused (e.g. the
	// scheduler request a uthread made). Owned by the embedding runtime.
	tag any
}

// NewProc creates a coroutine that will execute fn when first resumed.
// The proc does not start automatically; call Resume from event context or
// schedule it with StartProc.
func (e *Engine) NewProc(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:   e,
		name:  name,
		state: procNew,
		fn:    fn,
		pseq:  e.procSeq,
	}
	e.procSeq++
	e.procs[p] = struct{}{}
	return p
}

// StartProc creates the proc and schedules its first resumption immediately.
func (e *Engine) StartProc(name string, fn func(*Proc)) *Proc {
	p := e.NewProc(name, fn)
	e.scheduleResume(p, 0)
	return p
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the proc has finished.
func (p *Proc) Done() bool { return p.state == procDone }

// Tag returns the runtime-owned annotation set by SetTag.
func (p *Proc) Tag() any { return p.tag }

// SetTag attaches a runtime-owned annotation readable after the proc pauses.
func (p *Proc) SetTag(v any) { p.tag = v }

// Resume runs the proc synchronously until it pauses or finishes. It must
// be called from event context (inside an event callback). It reports
// whether the proc is still alive (paused) after this slice. A panic in
// the proc propagates out of Resume, and so out of Engine.Run.
func (p *Proc) Resume() bool {
	if invariants.Enabled {
		if !p.eng.inEvent {
			panic("sim: Resume outside event context for proc " + p.name)
		}
		if r := p.eng.running; r != nil {
			panic("sim: Resume of " + p.name + " while proc " + r.name + " is running")
		}
		p.eng.running = p
	}
	switch p.state {
	case procDone:
		if invariants.Enabled {
			p.eng.running = nil
		}
		return false
	case procRunning:
		panic("sim: Resume on running proc " + p.name)
	case procNew:
		p.state = procRunning
		p.start()
	case procPaused:
		p.state = procRunning
	}
	p.next()
	if invariants.Enabled {
		p.eng.running = nil
	}
	return p.state != procDone
}

// Pause hands control back to the engine. The proc stays blocked until
// some event calls Resume. This is the primitive higher-level operations
// (Sleep, Park, uthread scheduling) are built on.
func (p *Proc) Pause() {
	p.state = procPaused
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Sleep blocks the proc for d nanoseconds of virtual time. The wakeup is
// a typed resume event: no closure, no per-sleep allocation.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleResume(p, d)
	p.Pause()
}

// kill unwinds a paused or unstarted proc. For a paused proc, stop makes
// the pending yield in Pause return false; Pause panics killed{}, fn's
// deferred functions run, and body swallows the sentinel.
func (p *Proc) kill() {
	switch p.state {
	case procDone, procRunning:
		return
	case procNew:
		p.state = procDone
		delete(p.eng.procs, p)
		return
	case procPaused:
		p.state = procRunning
		p.stop()
	}
}
