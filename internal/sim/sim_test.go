package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("tie-break not FIFO at %d: %d", i, got[i])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(10, func() {
		e.After(5, func() { fired++ })
		e.After(0, func() { fired++ })
	})
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("now = %v, want 15", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10, func() { fired = true })
	e.After(5, func() {
		if !tm.Stop() {
			t.Error("Stop returned false on pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
	})
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(10, func() {
		e.After(-5, func() { ran = true })
	})
	e.Run()
	if !ran || e.Now() != 10 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(100, func() { ran = true })
	e.RunUntil(50)
	if ran {
		t.Fatal("future event ran early")
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	e.RunUntil(150)
	if !ran || e.Now() != 150 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.StartProc("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(100)
		times = append(times, p.Now())
		p.Sleep(50)
		times = append(times, p.Now())
	})
	e.Run()
	e.Shutdown()
	want := []Time{0, 100, 150}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.StartProc("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a1")
		p.Sleep(20) // wakes at 30
		order = append(order, "a2")
	})
	e.StartProc("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b1")
		p.Sleep(30) // wakes at 45
		order = append(order, "b2")
	})
	e.Run()
	e.Shutdown()
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcParkResume(t *testing.T) {
	e := NewEngine()
	var p *Proc
	stage := 0
	p = e.NewProc("worker", func(p *Proc) {
		stage = 1
		p.Pause()
		stage = 2
	})
	e.After(0, func() { p.Resume() })
	e.After(100, func() { p.Resume() })
	e.Run()
	e.Shutdown()
	if stage != 2 {
		t.Fatalf("stage = %d, want 2", stage)
	}
	if !p.Done() {
		t.Fatal("proc not done")
	}
}

func TestShutdownKillsParkedProc(t *testing.T) {
	e := NewEngine()
	reached := false
	e.StartProc("stuck", func(p *Proc) {
		p.Pause() // never resumed
		reached = true
	})
	e.Run()
	e.Shutdown()
	if reached {
		t.Fatal("parked proc ran past Pause after kill")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var ts []Time
		for i := 0; i < 3; i++ {
			d := Duration(i * 7)
			e.StartProc("p", func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(d + Duration(j))
					ts = append(ts, p.Now())
				}
			})
		}
		e.Run()
		e.Shutdown()
		return ts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if Microsecond != 1000 || Millisecond != 1e6 || Second != 1e9 {
		t.Fatal("unit constants wrong")
	}
	if (2 * Microsecond).Micros() != 2.0 {
		t.Fatal("Micros wrong")
	}
	if (3 * Second).Seconds() != 3.0 {
		t.Fatal("Seconds wrong")
	}
}
