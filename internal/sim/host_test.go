package sim

import (
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// hostStats counts what a hosted scenario run exercised.
type hostStats struct {
	hosted, refused, nested int
	// settled and chained count the callbacks put into a slot by a
	// settle hook and by the previous link of a chain.
	settled, chained int
}

// scenario selects how runHostScenario runs a seeded scenario: host
// computes through Proc.Host instead of Sleep, and slots schedules
// delayed callbacks through reserved slots instead of eager At calls.
type scenario struct{ host, slots bool }

// runHostScenario runs one seeded scenario of procs and callback events
// and returns the (Now, label) log and the final sequence counter. With
// host set, a compute window is `if !p.Host(d) { p.Sleep(d) }`, the shape
// caladan's Task.Compute has; without it, every window is a plain Sleep,
// the park/resume handoff Host must reproduce exactly.
//
// With slots set, a callback delayed by d > 0 reserves its slot when an
// eager run would call After, and a settle hook of that instant puts it
// there (pmem's completion pattern); a chain of callbacks reserves all
// its slots at once and each link puts the next into its slot (the
// channel manager's budget-check pattern). The log's pending counts add
// the slots reserved but not yet filled, which an eager run has queued.
//
// Durations come from a few coarse values so events tie on time often.
// Procs compute, sleep, park until a callback wakes them, schedule
// callbacks and register settle hooks; callbacks log, register hooks,
// schedule more callbacks at zero or later delays, start chains and wake
// parked procs; hooks may extend their instant. The scenario runs to a
// few RunUntil deadlines that can fall inside compute windows before a
// final Run.
func runHostScenario(seed uint64, mode scenario, st *hostStats) ([]string, uint64) {
	e := NewEngine()
	g := rng.New(seed)
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	host := mode.host
	unfilled := 0
	atSlot := func(t Time, s Slot, fn func()) {
		unfilled--
		e.AtSlot(t, s, fn)
	}
	// after schedules fn d from now: eagerly, or into a slot reserved now
	// and filled when the instant settles.
	after := func(d Duration, fn func()) {
		if !mode.slots || d <= 0 {
			e.After(d, fn)
			return
		}
		t, s := e.Now()+Time(d), e.Reserve()
		unfilled++
		st.settled++
		e.OnSettle(func() { atSlot(t, s, fn) })
	}
	// chain schedules links[i] at offs[i] from now, offsets ascending:
	// eagerly, or each link filling the next one's reserved slot.
	chain := func(offs []Duration, links []func()) {
		if !mode.slots {
			for i, fn := range links {
				e.After(offs[i], fn)
			}
			return
		}
		t0 := e.Now()
		slots := make([]Slot, len(links))
		for i := range slots {
			slots[i] = e.Reserve()
		}
		unfilled += len(slots)
		var link func(i int) func()
		link = func(i int) func() {
			return func() {
				// Fill the next slot first: the body may resume a proc
				// whose hosted window runs the loop past it.
				if i+1 < len(links) {
					st.chained++
					atSlot(t0+Time(offs[i+1]), slots[i+1], link(i+1))
				}
				links[i]()
			}
		}
		atSlot(t0+Time(offs[0]), slots[0], link(0))
	}
	durs := []Duration{0, 5, 5, 10, 10, 15, 20, 40}
	var parked []*Proc
	depth := 0
	compute := func(p *Proc, d Duration) {
		if host {
			if depth > 0 {
				st.nested++
			}
			depth++
			ok := p.Host(d)
			depth--
			if ok {
				st.hosted++
				return
			}
			st.refused++
		}
		p.Sleep(d)
	}
	nextID := 0
	var callback func(r *rng.Rand, level int) func()
	settleHook := func(r *rng.Rand) func() {
		id := nextID
		nextID++
		extend := r.Intn(3) == 0
		return func() {
			note("settle%d", id)
			if extend {
				e.After(0, func() { note("settle%d.late", id) })
			}
		}
	}
	callback = func(r *rng.Rand, level int) func() {
		id := nextID
		nextID++
		act := r.Intn(7)
		var hook func()
		if act == 1 {
			hook = settleHook(r)
		}
		var child func()
		var delay Duration
		if (act == 2 || act == 5) && level < 3 {
			child = callback(r, level+1)
			if act == 5 {
				delay = durs[r.Intn(len(durs))]
			}
		}
		var offs []Duration
		var links []func()
		if act == 6 && level < 3 {
			var off Duration
			for i := 1 + r.Intn(3); i > 0; i-- {
				off += durs[r.Intn(len(durs))]
				offs = append(offs, off)
				links = append(links, callback(r, level+1))
			}
		}
		return func() {
			note("ev%d", id)
			switch {
			case hook != nil:
				e.OnSettle(hook)
			case child != nil:
				after(delay, child)
			case links != nil:
				chain(offs, links)
			case act == 3 && len(parked) > 0:
				p := parked[0]
				parked = parked[1:]
				note("ev%d wakes %s", id, p.Name())
				p.Resume()
			}
		}
	}
	nprocs := 2 + g.Intn(3)
	for i := 0; i < nprocs; i++ {
		r := rng.New(seed*16 + uint64(i) + 1)
		nops := 6 + r.Intn(10)
		body := func(p *Proc) {
			for op := 0; op < nops; op++ {
				d := durs[r.Intn(len(durs))]
				switch r.Intn(7) {
				case 0, 1, 2:
					if d == 0 {
						d = 5
					}
					compute(p, d)
					note("%s computed %d", p.Name(), d)
				case 3:
					p.Sleep(d)
					note("%s slept %d", p.Name(), d)
				case 4:
					after(d, callback(r, 0))
				case 5:
					e.OnSettle(settleHook(r))
					note("%s registered", p.Name())
				case 6:
					parked = append(parked, p)
					p.Pause()
					note("%s woke", p.Name())
				}
			}
		}
		name := fmt.Sprintf("p%d", i)
		if i%2 == 0 {
			e.StartProc(name, body)
		} else {
			p := e.NewProc(name, body)
			e.At(Time(durs[g.Intn(len(durs))]), func() { p.Resume() })
		}
	}
	for i := 0; i < 3+g.Intn(6); i++ {
		e.At(Time(g.Intn(120)), callback(g, 0))
	}
	deadline := Time(0)
	for i := 0; i < 1+g.Intn(3); i++ {
		deadline += Time(1 + g.Intn(60))
		e.RunUntil(deadline)
		note("until %d pending=%d", deadline, e.Pending()+unfilled)
	}
	e.Run()
	note("end pending=%d", e.Pending()+unfilled)
	e.Shutdown()
	return log, e.Sequence()
}

// TestHostMatchesSleep is the differential oracle for Proc.Host: over
// hundreds of seeded scenarios, hosting a compute window must give the
// same (Now, label) log and the same final Sequence as the plain Sleep
// handoff. The scenarios must actually host, nest hosts (a proc resumed
// inside another's window computing in turn) and refuse windows that
// cross a limit, or the comparison proves nothing.
func TestHostMatchesSleep(t *testing.T) {
	var st hostStats
	for seed := uint64(1); seed <= 300; seed++ {
		compareScenarios(t, seed, "hosted", scenario{}, scenario{host: true}, &st)
	}
	if st.hosted == 0 || st.nested == 0 || st.refused == 0 {
		t.Fatalf("scenarios too tame: %+v", st)
	}
	t.Logf("%+v", st)
}

// TestSlotsMatchEager is the differential oracle for reserved slots: over
// the same seeded scenarios, hosted windows included, reserving a slot
// where After would be called and filling it later from a settle hook or
// an earlier chain link must give the eager run's (Now, label) log, its
// pending counts after each deadline (reserved slots counted) and its
// final Sequence.
func TestSlotsMatchEager(t *testing.T) {
	var st hostStats
	for seed := uint64(1); seed <= 300; seed++ {
		compareScenarios(t, seed, "slotted", scenario{host: true}, scenario{host: true, slots: true}, &st)
	}
	if st.hosted == 0 || st.settled < 100 || st.chained < 100 {
		t.Fatalf("scenarios too tame: %+v", st)
	}
	t.Logf("%+v", st)
}

// compareScenarios runs seed under the reference mode and the mode under
// test and fails on the first difference in the log or the final
// Sequence. st collects the stats of the run under test.
func compareScenarios(t *testing.T, seed uint64, name string, ref, mode scenario, st *hostStats) {
	t.Helper()
	want, wantSeq := runHostScenario(seed, ref, &hostStats{})
	got, gotSeq := runHostScenario(seed, mode, st)
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("seed %d: log diverges at line %d: %s %q, reference %q", seed, i, name, g, w)
		}
	}
	if gotSeq != wantSeq {
		t.Fatalf("seed %d: Sequence = %d %s, %d in the reference", seed, gotSeq, name, wantSeq)
	}
}

// TestHostRefusals pins Host's refusals: a non-positive window, a window
// outside any event loop, a window that ends past a RunUntil deadline and
// a nested window that does not end before its host's slot all report
// false and spend no sequence number.
func TestHostRefusals(t *testing.T) {
	e := NewEngine()
	p := e.NewProc("outside", func(p *Proc) {})
	if p.Host(5) || e.Sequence() != 0 {
		t.Fatalf("Host outside a loop ran: seq %d", e.Sequence())
	}
	var got []string
	try := func(p *Proc, d Duration) {
		seq := e.Sequence()
		ok := p.Host(d)
		got = append(got, fmt.Sprintf("%s %d %v@%d+%d", p.Name(), d, ok, e.Now(), e.Sequence()-seq))
	}
	inner := e.NewProc("inner", func(p *Proc) {
		try(p, 10) // ends at 20, the outer slot's time: refused
		try(p, 9)  // ends at 19: hosted
	})
	e.StartProc("outer", func(p *Proc) {
		try(p, 0)
		try(p, 60) // past the RunUntil(50) deadline
		e.At(10, func() { inner.Resume() })
		try(p, 20) // spends its own slot and inner's
		try(p, 30) // ends exactly at the deadline: hosted
	})
	e.RunUntil(50)
	want := "[outer 0 false@0+0 outer 60 false@0+0 inner 10 false@10+0 inner 9 true@19+1 outer 20 true@20+2 outer 30 true@50+1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got  %v\nwant %s", got, want)
	}
}

// TestHostedPanicSurfacesFromRun: a panic in a proc resumed from inside
// another proc's window unwinds through the hosting proc's stack and
// surfaces from Engine.Run; both procs end up done.
func TestHostedPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	bad := e.NewProc("bad", func(p *Proc) { panic("boom") })
	host := e.StartProc("host", func(p *Proc) {
		e.At(7, func() { bad.Resume() })
		if !p.Host(10) {
			t.Error("window not hosted")
		}
		t.Error("host returned from a window its nested proc panicked in")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" || e.Now() != 7 {
		t.Fatalf("Run panicked with %v at %v, want boom at 7", got, e.Now())
	}
	if !bad.Done() || !host.Done() {
		t.Fatalf("done: bad %v, host %v", bad.Done(), host.Done())
	}
	e.Shutdown()
}
