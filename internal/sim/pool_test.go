package sim

import "testing"

// TestPendingLiveCounter pins the O(1) Pending counter against every
// transition: schedule, fire, Stop, double-Stop, and Stop-after-fire.
func TestPendingLiveCounter(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 3; i++ {
		tms = append(tms, e.After(Duration(10+i), func() {}))
	}
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	if !tms[1].Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after Stop = %d, want 2", got)
	}
	// Double-Stop must not double-decrement.
	if tms[1].Stop() {
		t.Fatal("second Stop returned true")
	}
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after double Stop = %d, want 2", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	// Stop on an already-fired timer must not decrement below zero.
	if tms[0].Stop() {
		t.Fatal("Stop on fired timer returned true")
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Stop-on-fired = %d, want 0", got)
	}
	// And the counter still tracks new events correctly afterwards.
	e.After(1, func() {})
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after reschedule = %d, want 1", got)
	}
}

// TestZeroTimerStop: the zero Timer is an expired handle.
func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
}

// TestStaleTimerAfterReuse: once a timer's event has fired and its struct
// has been recycled for a new event, Stop on the stale handle must be a
// no-op — it must not cancel the unrelated new event.
func TestStaleTimerAfterReuse(t *testing.T) {
	e := NewEngine()
	firedA, firedB := false, false
	tmA := e.After(1, func() { firedA = true })
	e.Run()
	if !firedA {
		t.Fatal("A did not fire")
	}
	// The pool now holds A's struct; B reuses it.
	e.After(1, func() { firedB = true })
	if tmA.Stop() {
		t.Fatal("stale Stop on fired timer returned true")
	}
	e.Run()
	if !firedB {
		t.Fatal("stale Stop cancelled an unrelated pooled event")
	}
}

// TestStoppedPooledEventNeverFiresStaleClosure: a stopped timer's event is
// recycled once its deadline passes; the replacement scheduled into the
// same struct must run its own callback exactly once and never the stale
// one.
func TestStoppedPooledEventNeverFiresStaleClosure(t *testing.T) {
	e := NewEngine()
	staleRuns, freshRuns := 0, 0
	tm := e.After(5, func() { staleRuns++ })
	tm.Stop()
	e.After(10, func() {}) // carries the clock past the dead event
	e.Run()                // pops + recycles the dead event
	// Reuse the pooled struct for a fresh event.
	e.After(1, func() { freshRuns++ })
	e.Run()
	if staleRuns != 0 {
		t.Fatalf("stale closure ran %d times", staleRuns)
	}
	if freshRuns != 1 {
		t.Fatalf("fresh closure ran %d times, want 1", freshRuns)
	}
	// The stale handle still refuses to act on the recycled struct.
	if tm.Stop() {
		t.Fatal("stale handle Stop returned true after reuse")
	}
}

// TestSleepResumeNoAlloc pins the allocation-free schedule→sleep→resume
// fast path: once the proc's coroutine exists and the event pool is warm,
// one Sleep→resume lap allocates nothing — neither an event nor anything
// in the coroutine switch.
func TestSleepResumeNoAlloc(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	laps := 0
	e.StartProc("p", func(p *Proc) {
		for {
			p.Sleep(1)
			laps++
		}
	})
	e.RunFor(8) // starts the coroutine and warms the event pool
	before := laps
	if a := testing.AllocsPerRun(100, func() { e.RunFor(1) }); a != 0 {
		t.Fatalf("warm Sleep→resume lap allocates %.1f times", a)
	}
	if got := laps - before; got != 101 {
		t.Fatalf("laps during AllocsPerRun = %d, want 101 (one per RunFor)", got)
	}
}

// TestHeapCompaction: mass-cancelled events are dropped eagerly and do
// not change what fires or when.
func TestHeapCompaction(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 0; i < 500; i++ {
		tm := e.After(Duration(1000+i), func() {})
		tm.Stop()
	}
	// Live events interleaved after the cancelled batch.
	for i := 0; i < 10; i++ {
		i := i
		e.After(Duration(10+i), func() { fired = append(fired, e.Now()) })
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	e.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for i, ts := range fired {
		if ts != Time(10+i) {
			t.Fatalf("fired[%d] at %v, want %v", i, ts, Time(10+i))
		}
	}
}
