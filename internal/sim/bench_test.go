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

// BenchmarkQueueSteady16 measures push+pop with 16 events resident: each
// iteration pops the earliest event and reschedules it one horizon ahead,
// so occupancy stays constant. Measured on the benchmark workloads, the
// engine's queue holds about 10 events on average, at most 17 on the
// serving cells and 40 on the Figure 9 sweep; 16 is that regime. The
// deadlines hash-spread over the horizon so pushes land at varied depths.
func BenchmarkQueueSteady16(b *testing.B) {
	b.ReportAllocs()
	const (
		pending = 16
		horizon = 16384
	)
	var h eventHeap
	var t Time
	var seq uint64
	for i := 0; i < pending; i++ {
		ev := new(event)
		seq++
		ev.t = Time(1 + uint32(i)*2654435761%horizon)
		ev.seq = seq
		h.push(ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		if ev.t < t {
			b.Fatal("queue went backwards")
		}
		t = ev.t
		seq++
		ev.t += horizon
		ev.seq = seq
		h.push(ev)
	}
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
