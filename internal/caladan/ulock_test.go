package caladan

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/sim"
)

func TestULockMutualExclusion(t *testing.T) {
	eng, rt := newRT(2)
	var l ULock
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		rt.Spawn(-1, "w", func(task *Task) {
			l.Lock(task)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			task.Compute(10 * sim.Microsecond)
			inside--
			l.Unlock()
		})
	}
	eng.Run()
	eng.Shutdown()
	if maxInside != 1 {
		t.Fatalf("critical section overlap: %d", maxInside)
	}
	if l.Held() {
		t.Fatal("lock leaked")
	}
}

func TestULockFIFOHandoff(t *testing.T) {
	eng, rt := newRT(4)
	var l ULock
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		// Stagger arrival so the queue order is 0,1,2,3.
		eng.After(sim.Duration(i)*sim.Microsecond, func() {
			rt.Spawn(i%4, "w", func(task *Task) {
				l.Lock(task)
				order = append(order, i)
				task.Compute(20 * sim.Microsecond)
				l.Unlock()
			})
		})
	}
	eng.Run()
	eng.Shutdown()
	for i, v := range order {
		if v != i {
			t.Fatalf("handoff order = %v", order)
		}
	}
}

func TestULockNilTaskUncontended(t *testing.T) {
	var l ULock
	l.Lock(nil)
	if !l.Held() {
		t.Fatal("not held")
	}
	l.Unlock()
	if l.Held() {
		t.Fatal("still held")
	}
}

func TestULockUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var l ULock
	l.Unlock()
}

func TestWaitQueueBroadcast(t *testing.T) {
	eng, rt := newRT(2)
	var q WaitQueue
	woken := 0
	for i := 0; i < 3; i++ {
		rt.Spawn(-1, "w", func(task *Task) {
			q.Wait(task)
			woken++
		})
	}
	eng.After(50*sim.Microsecond, func() {
		if q.Len() != 3 {
			t.Errorf("queue len = %d", q.Len())
		}
		q.Broadcast()
	})
	eng.Run()
	eng.Shutdown()
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestULockHandoffNoAllocs pins a contended FIFO handoff at zero heap
// allocations once warm: two uthreads on two cores take turns on one
// lock, so every Unlock pops a parked waiter and every Lock parks behind
// the holder. The waiter queue keeps its backing array across the pop.
func TestULockHandoffNoAllocs(t *testing.T) {
	eng, rt := newRT(2)
	defer eng.Shutdown()
	var l ULock
	handoffs := 0
	for c := 0; c < 2; c++ {
		rt.Spawn(c, "locker", func(task *Task) {
			for {
				l.Lock(task)
				handoffs++
				task.Compute(2 * sim.Microsecond)
				l.Unlock()
			}
		})
	}
	eng.RunFor(100 * sim.Microsecond)
	before := handoffs
	if a := testing.AllocsPerRun(100, func() { eng.RunFor(10 * sim.Microsecond) }); a != 0 {
		t.Fatalf("a contended ULock handoff allocates: %.1f allocations per 10us", a)
	}
	if handoffs-before < 100 {
		t.Fatalf("only %d handoffs in the measured window", handoffs-before)
	}
}

// TestWaitQueueCycleNoAllocs pins a Wait/Broadcast cycle at zero heap
// allocations once warm: Broadcast truncates the waiter slice, so the
// next Wait appends into the same backing array.
func TestWaitQueueCycleNoAllocs(t *testing.T) {
	eng, rt := newRT(2)
	defer eng.Shutdown()
	var q WaitQueue
	woken := 0
	for c := 0; c < 2; c++ {
		rt.Spawn(c, "waiter", func(task *Task) {
			for {
				q.Wait(task)
				woken++
			}
		})
	}
	var tick func()
	tick = func() {
		q.Broadcast()
		eng.After(sim.Microsecond, tick)
	}
	eng.After(sim.Microsecond, tick)
	eng.RunFor(100 * sim.Microsecond)
	before := woken
	if a := testing.AllocsPerRun(100, func() { eng.RunFor(10 * sim.Microsecond) }); a != 0 {
		t.Fatalf("a WaitQueue Wait/Broadcast cycle allocates: %.1f allocations per 10us", a)
	}
	if woken-before < 100 {
		t.Fatalf("only %d wakes in the measured window", woken-before)
	}
}
