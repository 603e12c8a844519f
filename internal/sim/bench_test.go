package sim

import "testing"

// BenchmarkEngineEventsPerSec measures raw event dispatch: a single
// self-rescheduling timer chain, one event per iteration.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.After(1, fn)
		}
	}
	b.ResetTimer()
	e.After(1, fn)
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcSwitch measures the schedule→sleep→resume path: one proc
// sleeping in a tight loop, so every iteration is a full coroutine
// round-trip through the event kernel.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	e.StartProc("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
	b.StopTimer()
	e.Shutdown()
}

// ---------------------------------------------------------------------------
// Timer-wheel vs. binary-heap head-to-head. The engine runs on the wheel;
// these benchmarks drive both queue implementations directly with the same
// workloads so the replacement stays an evidence-backed choice.

// BenchmarkQueueChainHeap / BenchmarkQueueChainWheel: one pending event,
// insert at t+1 and expire — the self-rescheduling timer chain that
// dominates the kernel's hot path.
func BenchmarkQueueChainHeap(b *testing.B) {
	b.ReportAllocs()
	var h eventHeap
	ev := new(event)
	var t Time
	var seq uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t++
		seq++
		ev.t, ev.seq = t, seq
		h.push(ev)
		if got := h.pop(); got != ev {
			b.Fatal("heap returned wrong event")
		}
	}
}

func BenchmarkQueueChainWheel(b *testing.B) {
	b.ReportAllocs()
	var w wheel
	w.init()
	ev := new(event)
	var t Time
	var seq uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t++
		seq++
		ev.t, ev.seq = t, seq
		w.insert(ev)
		if got := w.peek(0, false); got != ev {
			b.Fatal("wheel returned wrong event")
		}
		w.popDue()
	}
}

// benchQueueSteady measures insert+expire with `pending` events resident:
// each iteration pops the earliest event and reschedules it one horizon
// ahead, so the queue stays at constant occupancy (the serving-cell shape,
// where thousands of timers are in flight). The deltas hash-spread over
// the horizon to defeat slot locality.
func benchQueueSteady(b *testing.B, pending int, push func(*event), pop func() *event) {
	const horizon = 16384
	var t Time
	var seq uint64
	for i := 0; i < pending; i++ {
		ev := new(event)
		seq++
		ev.t = Time(1 + uint32(i)*2654435761%horizon)
		ev.seq = seq
		push(ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := pop()
		if ev.t < t {
			b.Fatal("queue went backwards")
		}
		t = ev.t
		seq++
		ev.t += horizon
		ev.seq = seq
		push(ev)
	}
}

func BenchmarkQueueSteady4096Heap(b *testing.B) {
	b.ReportAllocs()
	var h eventHeap
	benchQueueSteady(b, 4096, h.push, h.pop)
}

func BenchmarkQueueSteady4096Wheel(b *testing.B) {
	b.ReportAllocs()
	var w wheel
	w.init()
	benchQueueSteady(b, 4096, w.insert, func() *event {
		ev := w.peek(0, false)
		w.popDue()
		return ev
	})
}

// BenchmarkTimerStop measures schedule+cancel pairs (the pmem arbitration
// pattern: every recompute stops the previous completion timer).
func BenchmarkTimerStop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(Duration(i+1), func() {})
		tm.Stop()
	}
	b.StopTimer()
	e.Run()
}
