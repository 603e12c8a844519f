package sim

import (
	"fmt"
	"math"
	"testing"

	"github.com/easyio-sim/easyio/internal/invariants"
)

// never is a placeholder time later than any real event.
const never = Time(math.MaxInt64)

func TestSettleRunsAfterLastSameInstantEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.At(10, func() {
		note("a")
		e.OnSettle(func() { note("settle") })
		// Scheduled during the instant: the hook waits for it.
		e.After(0, func() { note("b") })
	})
	e.At(10, func() { note("c") })
	e.At(20, func() { note("d") })
	e.Run()
	want := "[a@10 c@10 b@10 settle@10 d@20]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestSettleHookMayExtendTheInstant(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.At(5, func() {
		e.OnSettle(func() {
			note("settle1")
			e.After(0, func() {
				note("late")
				e.OnSettle(func() { note("settle2") })
			})
		})
	})
	e.At(6, func() { note("next") })
	e.Run()
	want := "[settle1@5 late@5 settle2@5 next@6]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestSettleBeforeRunUntilAdvances(t *testing.T) {
	e := NewEngine()
	var at []Time
	hook := func() { at = append(at, e.Now()) }
	e.At(10, func() { e.OnSettle(hook) })
	e.At(100, func() {})
	e.RunUntil(50)
	if len(at) != 1 || at[0] != 10 {
		t.Fatalf("hook ran at %v, want once at 10", at)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	// Registered outside any event, with nothing due by the deadline.
	e.OnSettle(hook)
	e.RunUntil(60)
	if len(at) != 2 || at[1] != 50 {
		t.Fatalf("hook ran at %v, want a second run at 50", at)
	}
}

func TestSettleBeforeRunReturns(t *testing.T) {
	e := NewEngine()
	var at []Time
	hook := func() { at = append(at, e.Now()) }
	// Empty queue from the start.
	e.OnSettle(hook)
	e.Run()
	// The last event of the run registers the hook.
	e.At(30, func() { e.OnSettle(hook) })
	e.Run()
	if fmt.Sprint(at) != "[0.000us 0.030us]" {
		t.Fatalf("hook ran at %v, want at 0 and 30", at)
	}
}

func TestRetimeKeepsFIFOAmongSameTimeEvents(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	e.At(10, note("a"))
	s := e.Reserve()
	p := e.AtSlot(never, s, note("p"))
	e.At(10, note("b"))
	e.At(5, func() {
		if !p.Retime(10, s) {
			t.Error("Retime of a queued timer failed")
		}
		e.At(10, note("c"))
	})
	e.Run()
	if fmt.Sprint(got) != "[a p b c]" {
		t.Fatalf("order = %v, want [a p b c]: Retime into the event's own slot must keep its place", got)
	}
	if e.Sequence() != 5 {
		t.Fatalf("Sequence() = %d, want 5: Retime spends no sequence number", e.Sequence())
	}
}

func TestRetimeClampsToNow(t *testing.T) {
	e := NewEngine()
	var firedAt Time = -1
	p := e.At(never, func() { firedAt = e.Now() })
	e.At(7, func() { p.Retime(3, e.Reserve()) })
	e.Run()
	if firedAt != 7 {
		t.Fatalf("retimed into the past fired at %v, want now (7)", firedAt)
	}
}

func TestRetimeStaleOrZeroTimer(t *testing.T) {
	e := NewEngine()
	if (Timer{}).Retime(5, e.Reserve()) {
		t.Fatal("Retime of the zero Timer reported true")
	}
	stopped := e.At(10, func() { t.Error("stopped timer fired") })
	stopped.Stop()
	if stopped.Retime(20, e.Reserve()) {
		t.Fatal("Retime of a stopped Timer reported true")
	}
	fired := e.At(1, func() {})
	e.Run()
	if fired.Retime(30, e.Reserve()) {
		t.Fatal("Retime of a fired Timer reported true")
	}
	// The fired event's struct backs this one now; the stale handle
	// must not move it.
	firedAt := Time(-1)
	e.At(40, func() { firedAt = e.Now() })
	if fired.Retime(50, e.Reserve()) || stopped.Retime(50, e.Reserve()) {
		t.Fatal("Retime through a stale handle reported true")
	}
	e.Run()
	if firedAt != 40 {
		t.Fatalf("recycled event fired at %v, want 40", firedAt)
	}
}

// TestSlotBeforeDispatchPanics: under easyio_invariants, AtSlot and
// Retime refuse a slot the engine has already passed — one ordered before
// the event being dispatched, directly or by clamping its time to now —
// and a sequence number nobody reserved. A slot after the dispatched
// event is accepted.
func TestSlotBeforeDispatchPanics(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("the slot checks run only under easyio_invariants")
	}
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	e := NewEngine()
	early := e.Reserve()
	queued := e.At(100, func() {})
	var got []bool
	e.At(5, func() {
		late := e.Reserve()
		got = append(got,
			panics(func() { e.AtSlot(5, early, func() {}) }),
			panics(func() { e.AtSlot(3, early, func() {}) }),
			panics(func() { queued.Retime(5, early) }),
			panics(func() { e.AtSlot(50, Slot{}, func() {}) }),
			panics(func() { e.AtSlot(50, Slot{e.Sequence() + 1}, func() {}) }),
			panics(func() { e.AtSlot(6, early, func() {}) }),
			panics(func() { queued.Retime(5, late) }),
		)
	})
	e.Run()
	if want := "[true true true true true false false]"; fmt.Sprint(got) != want {
		t.Fatalf("panicked = %v, want %s", got, want)
	}
}
