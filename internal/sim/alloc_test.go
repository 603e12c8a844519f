package sim

import "testing"

// TestScheduleStopFireNoAllocs pins the contract the noalloc analyzer
// certifies statically for the //easyio:hotpath roots eventHeap.push,
// eventHeap.pop, eventHeap.remove and Engine.runSettle: once the event
// free list, the queue and the settle list reach their high-water marks,
// a cycle that schedules timers, cancels some of them mid-queue, reserves
// a slot, schedules into it from a settle hook and fires the rest
// performs no heap allocation.
func TestScheduleStopFireNoAllocs(t *testing.T) {
	eng := NewEngine()
	defer eng.Shutdown()
	fn := func() {}
	delays := [...]Duration{1, 3, 3, 100, 255, 4 << 10, 1 << 20, 1 << 30}
	var tms [len(delays)]Timer
	// The pmem pattern: invalidate reserves a slot and registers a
	// pre-bound hook once; the hook moves the pending event into the slot,
	// or schedules one there, when the instant settles.
	var pending Timer
	var slot Slot
	settle := func() {
		if !pending.Retime(eng.Now()+5, slot) {
			pending = eng.AtSlot(eng.Now()+5, slot, fn)
		}
	}
	invalidate := func() {
		slot = eng.Reserve()
		eng.OnSettle(settle)
	}
	cycle := func() {
		for i, d := range delays {
			tms[i] = eng.After(d, fn)
		}
		// Cancel from the middle, the root and a leaf.
		tms[3].Stop()
		tms[0].Stop()
		tms[7].Stop()
		eng.After(2, invalidate)
		eng.RunFor(1 << 31)
	}
	// Warm the free list and the queue's backing array to high water.
	for i := 0; i < 10; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("event queue schedule/stop/fire allocates %.1f times per cycle", a)
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after cycle", eng.Pending())
	}
}
