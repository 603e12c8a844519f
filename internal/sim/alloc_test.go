package sim

import "testing"

// TestScheduleStopFireNoAllocs pins the contract the noalloc analyzer
// certifies statically for the //easyio:hotpath roots eventHeap.push,
// eventHeap.pop and eventHeap.remove: once the event free list and the
// queue reach their high-water marks, a cycle that schedules timers,
// cancels some of them mid-queue and fires the rest performs no heap
// allocation.
func TestScheduleStopFireNoAllocs(t *testing.T) {
	eng := NewEngine()
	defer eng.Shutdown()
	fn := func() {}
	delays := [...]Duration{1, 3, 3, 100, 255, 4 << 10, 1 << 20, 1 << 30}
	var tms [len(delays)]Timer
	cycle := func() {
		for i, d := range delays {
			tms[i] = eng.After(d, fn)
		}
		// Cancel from the middle, the root and a leaf.
		tms[3].Stop()
		tms[0].Stop()
		tms[7].Stop()
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
