package sim

import (
	"sort"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// TestQueueRandomizedOrder checks the event queue against the (time, seq)
// total order under cancellation churn: a few coarse deadlines so most
// events tie on time, Stops at random queue positions both from outside
// and from inside callbacks, Stops on fired and already-stopped timers,
// and nested scheduling. Every fire must match the sorted order of the
// timers that were never cancelled, seq included.
func TestQueueRandomizedOrder(t *testing.T) {
	g := rng.New(7)
	e := NewEngine()
	type fire struct {
		t   Time
		seq uint64
	}
	type rec struct {
		fire
		tm             Timer
		fired, stopped bool
	}
	var recs []*rec
	var got []fire
	deltas := []Duration{0, 0, 1, 1, 2, 5, 5, 100, 1 << 40}
	stopRandom := func() {
		r := recs[g.Intn(len(recs))]
		want := !r.fired && !r.stopped
		if got := r.tm.Stop(); got != want {
			t.Fatalf("Stop on timer (t=%v seq=%d fired=%v stopped=%v) = %v, want %v",
				r.t, r.seq, r.fired, r.stopped, got, want)
		}
		if want {
			r.stopped = true
		}
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		r := &rec{}
		r.t = e.Now() + Time(deltas[g.Intn(len(deltas))])
		r.tm = e.At(r.t, func() {
			if r.stopped {
				t.Fatalf("stopped timer (t=%v seq=%d) fired", r.t, r.seq)
			}
			r.fired = true
			got = append(got, fire{e.Now(), r.seq})
			if depth < 3 && g.Intn(2) == 0 {
				schedule(depth + 1)
			}
			if g.Intn(3) == 0 {
				stopRandom()
			}
		})
		r.seq = e.Sequence()
		recs = append(recs, r)
	}
	for i := 0; i < 600; i++ {
		schedule(0)
		if g.Intn(4) == 0 {
			stopRandom()
		}
	}
	e.Run()

	var want []fire
	for _, r := range recs {
		if !r.stopped {
			want = append(want, r.fire)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].seq < want[j].seq
	})
	if len(got) < 400 || len(got) == len(recs) {
		t.Fatalf("fired %d of %d timers; the workload no longer mixes fires and Stops", len(got), len(recs))
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire %d = (t=%v seq=%d), want (t=%v seq=%d)", i, got[i].t, got[i].seq, want[i].t, want[i].seq)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestFarFutureTimers: timers hours of virtual time ahead fire in order,
// interleave correctly with near timers, and cancel cleanly.
func TestFarFutureTimers(t *testing.T) {
	e := NewEngine()
	var order []string
	far := Time(3600 * Second)
	e.At(far, func() { order = append(order, "far") })
	e.At(far+1, func() { order = append(order, "far+1") })
	cancelled := e.At(far+2, func() { order = append(order, "cancelled") })
	e.At(5, func() { order = append(order, "near") })
	if !cancelled.Stop() {
		t.Fatal("Stop on far timer returned false")
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
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

// TestBoundedRunThenLateInsert: RunUntil stops the clock exactly at its
// deadline without consuming the next pending event, so a later insert
// between the deadline and that event still fires, and fires before it.
func TestBoundedRunThenLateInsert(t *testing.T) {
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
