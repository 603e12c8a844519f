package sim

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/easyio-sim/easyio/internal/invariants"
)

// The engine's pending-event queue is a hierarchical timer wheel: four
// levels of 256 slots at 1ns tick granularity, so level L buckets spans of
// 256^L ns and the wheel as a whole covers 2^32 ns (~4.3s of virtual
// time) ahead of the cursor. Events beyond that horizon wait in an
// overflow min-heap (the old eventHeap, kept for exactly that role and for
// head-to-head benchmarks) and are drained into the wheel as the cursor
// approaches.
//
// Insert and expire are O(1) amortized — an insert indexes one slot, an
// expiry loads one slot — versus O(log n) heap sifts, which matters at the
// tens-of-millions-of-events/s the kernel runs. The price is cascading:
// when the cursor crosses a level-L boundary the slot it enters is
// redistributed to lower levels. Per-level occupancy bitmaps (256 bits)
// let the cursor jump over empty regions instead of scanning slots.
//
// The sparse case gets a dedicated fast path: a population-of-one insert
// parks in the solo register and dispatches without touching slots or
// bitmaps, so a self-rescheduling timer chain (the raw-dispatch perf
// probe's shape, and any quiescent engine's) pays heap-like cost instead
// of the full file/scan/cascade machinery.
//
// Ordering contract: the wheel must yield events in exactly the (time,
// seq) total order the heap did — the golden digest corpus pins it. A
// level-0 slot only ever holds a single tick's events (every resident
// event satisfies t >= cursor, and a slot's residents all lie within
// [cursor, cursor+256), which contains one time with any given low byte),
// but cascades can append an older-seq event behind a younger directly
// inserted one, so loading a slot sorts it by seq (cheap: checked first,
// and nearly always already sorted).
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64
	// wheelSpan is the look-ahead the wheel covers; events scheduled
	// further out go to the overflow heap.
	wheelSpan = Time(1) << (wheelBits * wheelLevels)
)

type wheel struct {
	// cursor is the wheel's notion of current time. Every resident event
	// has t >= cursor.
	cursor Time
	// solo is the fast path for the sparse case: when an insert makes the
	// wheel's whole population exactly one event, it parks here instead of
	// filing into a slot, and peek dispatches it without any bitmap scan
	// or cascade. The moment a second event arrives, solo demotes into the
	// normal structure (before the newcomer files, preserving seq order).
	// A self-rescheduling timer chain — the kernel's raw-dispatch probe —
	// never leaves this path. Invariant: solo != nil implies every other
	// store (due remainder, slots, far) is empty.
	solo *event
	// due holds the events of the tick currently being dispatched
	// (dueTime), sorted by seq; dueIdx is the read position. New events
	// scheduled for exactly dueTime append here (their seq is globally
	// maximal, so the sort order is preserved).
	due     []*event
	dueIdx  int
	dueTime Time
	slot    [wheelLevels][wheelSlots][]*event
	bitmap  [wheelLevels][wheelWords]uint64
	// far is the overflow heap for events >= wheelSpan ahead of cursor.
	far eventHeap
	// n counts resident events (due remainder + slots + far), including
	// cancelled ones not yet swept.
	n int
}

func (w *wheel) init() {
	// Distinguish "no tick loaded" from tick 0.
	w.dueTime = -1
}

// insert files ev by its delta from the cursor. Callers guarantee
// ev.t >= cursor (alloc clamps to now, and now never trails the cursor).
//
//easyio:hotpath (timer-wheel schedule: one call per event scheduled)
func (w *wheel) insert(ev *event) {
	w.n++
	if w.solo != nil {
		// Demote the parked event first so same-time arrivals keep seq
		// order (solo's seq is strictly older than ev's).
		s := w.solo
		w.solo = nil
		w.file(s)
	} else if w.n == 1 {
		// ev is the only resident event anywhere: park it.
		w.solo = ev
		return
	}
	w.file(ev)
}

// file places ev into the due buffer, a slot, or the overflow heap.
func (w *wheel) file(ev *event) {
	if ev.t == w.dueTime {
		w.due = append(w.due, ev)
		return
	}
	delta := ev.t - w.cursor
	if delta >= wheelSpan {
		w.far.push(ev)
		return
	}
	lvl := 0
	for delta >= Time(wheelSlots)<<uint(wheelBits*lvl) {
		lvl++
	}
	idx := int(ev.t>>uint(wheelBits*lvl)) & wheelMask
	w.slot[lvl][idx] = append(w.slot[lvl][idx], ev)
	w.bitmap[lvl][idx>>6] |= 1 << uint(idx&63)
}

// peek returns the earliest pending event without consuming it, or nil if
// none remain (or none at or before limit, when bounded). It advances the
// cursor and loads due ticks as needed; a bounded miss parks the cursor at
// limit without passing any pending event.
func (w *wheel) peek(limit Time, bounded bool) *event {
	for {
		if w.dueIdx < len(w.due) {
			ev := w.due[w.dueIdx]
			if bounded && ev.t > limit {
				return nil
			}
			return ev
		}
		if w.solo != nil {
			// The parked event is the wheel's entire population. Promote
			// it into the due buffer; the cursor can jump straight to its
			// tick because nothing else is resident.
			ev := w.solo
			if bounded && ev.t > limit {
				if w.cursor < limit {
					w.cursor = limit
				}
				return nil
			}
			w.solo = nil
			w.due = append(w.due[:0], ev)
			w.dueIdx = 0
			w.dueTime = ev.t
			w.cursor = ev.t
			return ev
		}
		if !w.advance(limit, bounded) {
			return nil
		}
	}
}

// popDue consumes the event peek returned.
func (w *wheel) popDue() {
	w.due[w.dueIdx] = nil
	w.dueIdx++
	w.n--
}

// advance moves the cursor to the next populated tick and loads it into
// due. It reports false when nothing (eligible) remains; a bounded miss
// leaves the cursor at limit so the engine's clock and the wheel agree.
//
//easyio:hotpath (timer-wheel fire: one call per dispatched tick)
func (w *wheel) advance(limit Time, bounded bool) bool {
	w.due = w.due[:0]
	w.dueIdx = 0
	for {
		if w.n == 0 {
			if bounded && w.cursor < limit {
				w.cursor = limit
			}
			return false
		}
		w.drainFar()
		base := w.cursor &^ Time(wheelMask)
		if s := w.nextSet(0, int(w.cursor-base)); s >= 0 {
			tick := base + Time(s)
			if bounded && tick > limit {
				w.cursor = limit
				return false
			}
			w.cursor = tick
			w.loadDue(tick, s)
			return true
		}
		// Current level-0 window exhausted: jump to the earliest region
		// that can hold an event and cascade the slots entered there.
		target := w.nextRegion(base + wheelSlots)
		if bounded && target > limit {
			w.cursor = limit
			return false
		}
		w.cursor = target
		w.cascadePass()
	}
}

// drainFar pulls overflow events that now fall inside the wheel horizon.
func (w *wheel) drainFar() {
	for len(w.far) > 0 && w.far[0].t-w.cursor < wheelSpan {
		w.file(w.far.pop())
	}
}

// nextRegion returns the 256-aligned start of the earliest populated
// region at or beyond next (the start of the following level-0 window),
// scanning each higher level's first occupied slot and the overflow root.
// Returning a slot's exact start keeps every cascade aligned: the entered
// slot's residents all satisfy t >= cursor.
func (w *wheel) nextRegion(next Time) Time {
	// Wrapped level-0 residents (direct inserts whose slot index lies
	// before the cursor) belong to the very next window and are invisible
	// to higher-level bitmaps — if any exist, the next window is the
	// earliest possible region.
	for word := 0; word < wheelWords; word++ {
		if w.bitmap[0][word] != 0 {
			return next
		}
	}
	best := Time(math.MaxInt64)
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := uint(wheelBits * lvl)
		span := Time(1) << shift
		window := span << wheelBits
		windowBase := w.cursor &^ (window - 1)
		idx := int(w.cursor>>shift) & wheelMask
		if s := w.nextSet(lvl, idx+1); s >= 0 {
			if t := windowBase + Time(s)<<shift; t < best {
				best = t
			}
		} else if s := w.nextSet(lvl, 0); s >= 0 {
			// Wrapped: the slot belongs to the next level-(lvl+1) window.
			if t := windowBase + window + Time(s)<<shift; t < best {
				best = t
			}
		}
	}
	if len(w.far) > 0 && w.far[0].t < best {
		best = w.far[0].t
	}
	if best < next {
		best = next
	}
	return best &^ Time(wheelMask)
}

// cascadePass redistributes, for each level >= 1, the slot the cursor just
// entered. The cursor is always at the entered slot's start (nextRegion
// returns slot starts; window stepping lands on boundaries), so residents
// re-file at strictly lower levels and the pass cannot feed itself.
func (w *wheel) cascadePass() {
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		idx := int(w.cursor>>uint(wheelBits*lvl)) & wheelMask
		if w.bitmap[lvl][idx>>6]&(1<<uint(idx&63)) == 0 {
			continue
		}
		w.bitmap[lvl][idx>>6] &^= 1 << uint(idx&63)
		list := w.slot[lvl][idx]
		w.slot[lvl][idx] = list[:0]
		for i, ev := range list {
			list[i] = nil
			w.file(ev)
		}
	}
}

// loadDue moves level-0 slot s (holding exactly the events of tick) into
// the due buffer in seq order. The events are copied (a handful of
// pointers) rather than the backings swapped: a swap would hand the
// slot's grown backing to due and leave the slot with whatever due last
// held, so neither capacity ever converges and busy ticks reallocate
// forever; with the copy both high-water marks stabilize.
func (w *wheel) loadDue(tick Time, s int) {
	w.bitmap[0][s>>6] &^= 1 << uint(s&63)
	list := w.slot[0][s]
	due := append(w.due[:0], list...)
	for i := range list {
		list[i] = nil
	}
	w.slot[0][s] = list[:0]
	sortEventsBySeq(due)
	w.due = due
	w.dueIdx = 0
	w.dueTime = tick
	if invariants.Enabled {
		for _, ev := range w.due {
			if ev.t != tick {
				panic(fmt.Sprintf("sim: wheel slot for tick %v holds event at %v", tick, ev.t))
			}
		}
	}
}

// sortEventsBySeq restores ascending seq order. Direct inserts arrive in
// seq order; only a cascade landing behind them can break it, so the list
// is nearly sorted and an insertion sort after a linear check wins.
func sortEventsBySeq(list []*event) {
	sorted := true
	for i := 1; i < len(list); i++ {
		if list[i].seq < list[i-1].seq {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	for i := 1; i < len(list); i++ {
		ev := list[i]
		j := i - 1
		for j >= 0 && list[j].seq > ev.seq {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = ev
	}
}

// nextSet returns the first occupied slot index >= from at lvl, or -1.
func (w *wheel) nextSet(lvl, from int) int {
	if from >= wheelSlots {
		return -1
	}
	word := from >> 6
	b := w.bitmap[lvl][word] &^ (1<<uint(from&63) - 1)
	for {
		if b != 0 {
			return word<<6 + bits.TrailingZeros64(b)
		}
		word++
		if word >= wheelWords {
			return -1
		}
		b = w.bitmap[lvl][word]
	}
}

// forEach visits every resident event (due remainder, slots, overflow).
// Used only by invariants cross-checks; it walks all 1024 slots.
func (w *wheel) forEach(fn func(*event)) {
	if w.solo != nil {
		fn(w.solo)
	}
	for i := w.dueIdx; i < len(w.due); i++ {
		fn(w.due[i])
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for idx := range w.slot[lvl] {
			for _, ev := range w.slot[lvl][idx] {
				fn(ev)
			}
		}
	}
	for _, ev := range w.far {
		fn(ev)
	}
}

// sweepDead removes cancelled events everywhere, handing each to release.
// Pop order is fully determined by the (time, seq) total order over live
// events, so the sweep is temporally invisible.
func (w *wheel) sweepDead(release func(*event)) {
	if w.solo != nil && w.solo.dead {
		w.n--
		release(w.solo)
		w.solo = nil
	}
	out := w.dueIdx
	for i := w.dueIdx; i < len(w.due); i++ {
		ev := w.due[i]
		if ev.dead {
			w.n--
			release(ev)
		} else {
			w.due[out] = ev
			out++
		}
	}
	for i := out; i < len(w.due); i++ {
		w.due[i] = nil
	}
	w.due = w.due[:out]
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for word := 0; word < wheelWords; word++ {
			b := w.bitmap[lvl][word]
			for b != 0 {
				idx := word<<6 + bits.TrailingZeros64(b)
				b &= b - 1
				list := w.slot[lvl][idx]
				keep := list[:0]
				for _, ev := range list {
					if ev.dead {
						w.n--
						release(ev)
					} else {
						keep = append(keep, ev)
					}
				}
				for i := len(keep); i < len(list); i++ {
					list[i] = nil
				}
				w.slot[lvl][idx] = keep
				if len(keep) == 0 {
					w.bitmap[lvl][idx>>6] &^= 1 << uint(idx&63)
				}
			}
		}
	}
	keep := w.far[:0]
	for _, ev := range w.far {
		if ev.dead {
			w.n--
			release(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(w.far); i++ {
		w.far[i] = nil
	}
	w.far = keep
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i)
	}
}
