package sim

import (
	"sort"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// TestWheelRandomizedOrder cross-checks the wheel against the (time, seq)
// total order on a workload that exercises every path the golden corpus
// does not: far-overflow deltas past the wheel span, cross-window inserts,
// nested scheduling from callbacks, and cancellations.
func TestWheelRandomizedOrder(t *testing.T) {
	g := rng.New(7)
	e := NewEngine()
	type fired struct {
		t   Time
		seq uint64
	}
	var got []fired
	var want []fired
	deltas := []Duration{0, 1, 3, 200, 255, 256, 300, 65_535, 65_537, 1 << 20,
		Duration(wheelSpan) - 1, Duration(wheelSpan), Duration(wheelSpan) + 12345}
	var schedule func(depth int)
	schedule = func(depth int) {
		d := deltas[g.Intn(len(deltas))]
		at := e.Now() + Time(d)
		var tm Timer
		tm = e.At(at, func() {
			got = append(got, fired{e.Now(), 0})
			if depth < 2 && g.Intn(3) == 0 {
				schedule(depth + 1)
			}
		})
		if g.Intn(5) == 0 {
			if !tm.Stop() {
				t.Fatal("Stop on pending timer returned false")
			}
			return
		}
		want = append(want, fired{at, tm.ev.seq})
	}
	// Seed a batch up front, then let callbacks fan out.
	for i := 0; i < 400; i++ {
		schedule(0)
	}
	e.Run()
	// Re-derive the expected order: the callbacks appended to want at
	// schedule time; the engine must have fired them sorted by (t, seq).
	if len(got) < 400-400/3 {
		t.Fatalf("suspiciously few events fired: %d", len(got))
	}
	exp := make([]fired, len(want))
	copy(exp, want)
	sort.SliceStable(exp, func(i, j int) bool {
		if exp[i].t != exp[j].t {
			return exp[i].t < exp[j].t
		}
		return exp[i].seq < exp[j].seq
	})
	if len(got) != len(exp) {
		t.Fatalf("fired %d events, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i].t != exp[i].t {
			t.Fatalf("fire %d at %v, want %v", i, got[i].t, exp[i].t)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestWheelFarOverflow: timers beyond the wheel span (≥ 2^32 ns) fire in
// order, interleave correctly with near timers, and cancel cleanly both
// before and after they cascade into the wheel.
func TestWheelFarOverflow(t *testing.T) {
	e := NewEngine()
	var order []string
	far := Time(wheelSpan) + 17
	e.At(far, func() { order = append(order, "far") })
	e.At(far+1, func() { order = append(order, "far+1") })
	cancelled := e.At(far+2, func() { order = append(order, "cancelled") })
	e.At(5, func() { order = append(order, "near") })
	if len(e.q.far) != 3 {
		t.Fatalf("overflow heap holds %d events, want 3", len(e.q.far))
	}
	if !cancelled.Stop() {
		t.Fatal("Stop on far timer returned false")
	}
	e.Run()
	wantOrder := []string{"near", "far", "far+1"}
	if len(order) != len(wantOrder) {
		t.Fatalf("order = %v, want %v", order, wantOrder)
	}
	for i := range order {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", order, wantOrder)
		}
	}
	if e.Now() != far+1 {
		t.Fatalf("now = %v, want %v", e.Now(), far+1)
	}
}

// TestWheelBoundedRunThenLateInsert is a regression test for the bounded
// cursor: RunUntil must park the wheel exactly at its deadline, so a later
// insert between the deadline and the next pending event still fires, and
// fires before it.
func TestWheelBoundedRunThenLateInsert(t *testing.T) {
	e := NewEngine()
	var order []Time
	e.At(10_000, func() { order = append(order, e.Now()) })
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("now = %v after RunUntil(100)", e.Now())
	}
	e.At(150, func() { order = append(order, e.Now()) })
	e.Run()
	if len(order) != 2 || order[0] != 150 || order[1] != 10_000 {
		t.Fatalf("order = %v, want [150 10000]", order)
	}
}

// TestWheelCascadeSeqOrder pins the same-tick seq sort: an event scheduled
// early (low seq) that reaches a level-0 slot via cascade must still fire
// before a younger event directly inserted into that slot, and a same-tick
// event scheduled from a callback fires after both.
func TestWheelCascadeSeqOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	// A: scheduled at now=0 for t=300 → delta 300 lands at level 1.
	e.At(300, func() {
		order = append(order, "A")
		// D: same tick, scheduled mid-dispatch; must run after B too.
		e.At(300, func() { order = append(order, "D") })
	})
	// At t=50, schedule B for t=300 → delta 250 lands directly in the
	// level-0 slot A will later cascade into, with a younger seq.
	e.At(50, func() {
		e.At(300, func() { order = append(order, "B") })
	})
	e.Run()
	want := []string{"A", "B", "D"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestStopOnlyCompaction (satellite fix): a long run of Timer.Stops with
// no intervening schedules must trigger compaction on its own — the old
// trigger only ran from alloc, so a cancel-only phase retained every dead
// event until its deadline passed.
func TestStopOnlyCompaction(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 4096; i++ {
		tms = append(tms, e.After(Duration(1000+i), func() {}))
	}
	e.After(1, func() {}) // one live survivor
	for _, tm := range tms {
		tm.Stop()
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if resident := e.q.n; resident > 1+64 {
		t.Fatalf("%d events resident after cancel-only phase; dead events retained", resident)
	}
}

// TestWheelSlotGenerationReuse (satellite): generation counters stay
// correct for events recycled through wheel slots and the overflow heap —
// a handle whose event fired (even after cascading down the levels) must
// refuse to Stop, and the recycled struct must back new timers safely.
func TestWheelSlotGenerationReuse(t *testing.T) {
	e := NewEngine()
	fired := 0
	// Through the cascade path: delta 70_000 lands at level 2, cascades
	// to level 1 and 0 as the cursor approaches.
	tm := e.At(70_000, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatal("cascaded timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop on fired (cascaded) timer returned true")
	}
	// Through the overflow path: the recycled struct backs a far timer.
	far := e.At(e.Now()+wheelSpan+5, func() { fired++ })
	if tm.Stop() {
		t.Fatal("stale handle cancelled a recycled far timer")
	}
	if !far.Stop() {
		t.Fatal("Stop on pending far timer returned false")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestWheelPendingAcrossLevels: the O(1) Pending counter (and, under the
// invariants tag, the full queue recount) stays exact with events resident
// at every level and in the overflow heap at once.
func TestWheelPendingAcrossLevels(t *testing.T) {
	e := NewEngine()
	ds := []Duration{1, 100, 1000, 70_000, 1 << 20, 1 << 25, Duration(wheelSpan) + 9}
	for _, d := range ds {
		e.After(d, func() {})
	}
	if got := e.Pending(); got != len(ds) {
		t.Fatalf("Pending = %d, want %d", got, len(ds))
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after run, want 0", got)
	}
	if e.Now() != Time(wheelSpan)+9 {
		t.Fatalf("now = %v", e.Now())
	}
}

// TestWheelSoloRegister pins the population-of-one fast path: a pure
// timer chain stays parked in the solo register (never filing a slot), a
// same-tick second insert demotes the older event ahead of the newcomer,
// Stop reclaims a parked event through the sweep, and the parked event
// counts as the wheel's whole population.
func TestWheelSoloRegister(t *testing.T) {
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 100 {
			e.After(1, fn)
			if e.q.solo == nil {
				t.Fatalf("chain event %d not parked in solo register", n+1)
			}
		}
	}
	e.After(1, fn)
	if e.q.solo == nil {
		t.Fatal("first chain event not parked in solo register")
	}
	if e.q.solo.t != 1 || e.q.n != 1 {
		t.Fatalf("solo at %v with n=%d, want 1 and 1", e.q.solo.t, e.q.n)
	}
	e.Run()
	if n != 100 {
		t.Fatalf("chain fired %d times, want 100", n)
	}

	// Same-tick demotion: the parked (older-seq) event must fire first.
	var order []int
	e.At(e.Now()+5, func() { order = append(order, 1) }) // parks solo
	e.At(e.Now()+5, func() { order = append(order, 2) }) // demotes it
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("same-tick order = %v, want [1 2]", order)
	}

	// Stop on a parked event: the handle must cancel it and the sweep
	// must reclaim it without it ever firing.
	tm := e.After(7, func() { t.Fatal("cancelled solo event fired") })
	if e.q.solo == nil {
		t.Fatal("single pending timer not parked in solo register")
	}
	if !tm.Stop() {
		t.Fatal("Stop on parked timer returned false")
	}
	e.compact()
	if e.q.solo != nil || e.q.n != 0 {
		t.Fatalf("solo=%v n=%d after Stop+compact, want nil,0", e.q.solo, e.q.n)
	}
	e.Run()
}
