package caladan

import (
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/sim"
)

// pinScenario runs two cores through a mix that exercises the ways a
// Compute window can meet other work: uthreads computing while others
// park, wake, busy-wait, get stolen and contend a ULock. It returns one
// line per core (switches, busy time) and one per uthread (finish time).
func pinScenario() []string {
	eng, rt := newRT(2)
	finish := map[string]sim.Time{}
	var names []string
	spawn := func(core int, name string, fn func(*Task)) *UThread {
		names = append(names, name)
		return rt.Spawn(core, name, func(task *Task) {
			fn(task)
			finish[name] = task.Now()
		})
	}
	var lk ULock
	// A long computer and a sleeper on core 0; the sleeper's wakes land
	// inside the computer's windows.
	spawn(0, "cruncher", func(task *Task) {
		for i := 0; i < 6; i++ {
			task.Compute(sim.Duration(7+3*i) * sim.Microsecond)
			task.Yield()
		}
	})
	spawn(0, "sleeper", func(task *Task) {
		for i := 0; i < 5; i++ {
			task.Sleep(sim.Duration(4+i) * sim.Microsecond)
			task.Compute(2 * sim.Microsecond)
		}
	})
	// Three more homed on core 0: core 1 steals them.
	for i := 0; i < 3; i++ {
		d := sim.Duration(5+2*i) * sim.Microsecond
		spawn(0, fmt.Sprintf("stolen%d", i), func(task *Task) {
			lk.Lock(task)
			task.Compute(d)
			lk.Unlock()
			task.Compute(d / 2)
		})
	}
	// A busy-waiter on core 1, woken from an event fired inside other
	// uthreads' windows.
	waiter := spawn(1, "waiter", func(task *Task) {
		task.Compute(3 * sim.Microsecond)
		task.Wait()
		task.Compute(1 * sim.Microsecond)
	})
	eng.After(9*sim.Microsecond, waiter.Wake)
	// A parker woken by a chain of timer events, some at tied times.
	parker := spawn(1, "parker", func(task *Task) {
		task.Park()
		task.Compute(11 * sim.Microsecond)
		task.Park()
		task.Compute(sim.Microsecond)
	})
	eng.After(13*sim.Microsecond, parker.Wake)
	eng.After(13*sim.Microsecond, func() {
		eng.After(20*sim.Microsecond, parker.Wake)
	})
	eng.Run()
	eng.Shutdown()
	var out []string
	for i := 0; i < rt.NumCores(); i++ {
		c := rt.Core(i)
		out = append(out, fmt.Sprintf("core%d switches=%d busy=%d", i, c.Switches(), c.BusyTime()))
	}
	for _, n := range names {
		out = append(out, fmt.Sprintf("%s finish=%d", n, finish[n]))
	}
	out = append(out, fmt.Sprintf("now=%d seq=%d", eng.Now(), eng.Sequence()))
	return out
}

// TestComputeSchedulePinned pins the two-core schedule to the values of
// the park/resume Compute path: a computing uthread that runs the event
// loop itself must leave every core's switches and busy time, every
// uthread's finish time, the clock and the sequence counter unchanged.
func TestComputeSchedulePinned(t *testing.T) {
	got := pinScenario()
	want := []string{
		"core0 switches=11 busy=51260",
		"core1 switches=9 busy=102320",
		"cruncher finish=102320",
		"sleeper finish=76100",
		"stolen0 finish=14980",
		"stolen1 finish=25640",
		"stolen2 finish=39300",
		"waiter finish=10040",
		"parker finish=42620",
		"now=102320 seq=51",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("schedule moved:\n got %q\nwant %q", got, want)
	}
}

// TestComputeAcrossRunUntilDeadline computes past a RunUntil deadline:
// the window cannot be run inside the first RunUntil, so the uthread
// stays mid-compute until a second RunUntil carries it to the exact end.
func TestComputeAcrossRunUntilDeadline(t *testing.T) {
	eng, rt := newRT(1)
	var mid, end sim.Time
	rt.Spawn(0, "w", func(task *Task) {
		task.Compute(30 * sim.Microsecond)
		mid = task.Now()
		task.Compute(100 * sim.Microsecond)
		end = task.Now()
	})
	var ticks []sim.Time
	for _, at := range []sim.Time{40_000, 80_000, 80_000, 150_000} {
		eng.At(at, func() { ticks = append(ticks, eng.Now()) })
	}
	eng.RunUntil(50_000)
	if end != 0 || eng.Now() != 50_000 {
		t.Fatalf("after RunUntil(50us): end = %v, now = %v", end, eng.Now())
	}
	eng.RunUntil(500_000)
	eng.Shutdown()
	got := fmt.Sprintf("mid=%d end=%d ticks=%v seq=%d", mid, end, ticks, eng.Sequence())
	want := "mid=30160 end=130160 ticks=[40.000us 80.000us 80.000us 150.000us] seq=7"
	if got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestSleepComputeNoAllocs pins the steady uthread lap at zero heap
// allocations: Task.Sleep hands After the uthread's pre-bound wake
// callback rather than a fresh closure, and a hosted Compute window
// schedules nothing of its own.
func TestSleepComputeNoAllocs(t *testing.T) {
	eng, rt := newRT(1)
	defer eng.Shutdown()
	rt.Spawn(0, "lap", func(task *Task) {
		for {
			task.Compute(300 * sim.Nanosecond)
			task.Sleep(sim.Microsecond)
		}
	})
	// Warm the event free list and the run queue to high water.
	eng.RunFor(100 * sim.Microsecond)
	if a := testing.AllocsPerRun(100, func() { eng.RunFor(10 * sim.Microsecond) }); a != 0 {
		t.Fatalf("a compute/sleep lap allocates: %.1f allocations per 10us", a)
	}
}
