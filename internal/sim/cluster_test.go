package sim

import (
	"fmt"
	"testing"
)

// TestClusterPingPong: two linked domains exchange a token on the shared
// engine; every hop respects the link floor and the alternation is exact.
func TestClusterPingPong(t *testing.T) {
	c := NewCluster()
	var aTimes, bTimes []Time
	var a, b *Domain
	hops := 0
	var onA, onB func()
	onA = func() {
		aTimes = append(aTimes, a.Engine().Now())
		if hops < 10 {
			hops++
			a.Send(b, 5, onB)
		}
	}
	onB = func() {
		bTimes = append(bTimes, b.Engine().Now())
		if hops < 10 {
			hops++
			b.Send(a, 5, onA)
		}
	}
	a = c.AddDomain("a", func(d *Domain) { d.Engine().After(0, onA) })
	b = c.AddDomain("b", nil)
	c.Link(a, b, 5)
	c.Link(b, a, 5)
	c.Run(1000)
	if a.Engine() != b.Engine() {
		t.Fatal("domains of one cluster run on different engines")
	}
	if hops != 10 {
		t.Fatalf("hops = %d, want 10", hops)
	}
	if len(aTimes) != 6 || len(bTimes) != 5 {
		t.Fatalf("a saw %d volleys, b saw %d; want 6 and 5", len(aTimes), len(bTimes))
	}
	for i, ts := range aTimes {
		if want := Time(10 * i); ts != want {
			t.Fatalf("a volley %d at %v, want %v", i, ts, want)
		}
	}
	for i, ts := range bTimes {
		if want := Time(10*i + 5); ts != want {
			t.Fatalf("b volley %d at %v, want %v", i, ts, want)
		}
	}
	if now := a.Engine().Now(); now != 1000 {
		t.Fatalf("clock %v after Run(1000), want 1000", now)
	}
}

// TestClusterUnlinkedMatchesSingleEngine: a cluster run is its domains'
// inits, in AddDomain order, followed by Engine.RunUntil on one engine.
func TestClusterUnlinkedMatchesSingleEngine(t *testing.T) {
	chain := func(e *Engine, i int) {
		n := 0
		var step func()
		step = func() {
			n++
			if n < 100+10*i {
				e.After(Duration(1+i), step)
			}
		}
		e.After(1, step)
	}
	c := NewCluster()
	for i := 0; i < 3; i++ {
		i := i
		c.AddDomain(fmt.Sprintf("solo%d", i), func(d *Domain) { chain(d.Engine(), i) })
	}
	c.Run(1000)
	e := NewEngine()
	for i := 0; i < 3; i++ {
		chain(e, i)
	}
	e.RunUntil(1000)
	if got, want := c.eng.Sequence(), e.Sequence(); got != want {
		t.Fatalf("cluster scheduled %d events, engine %d", got, want)
	}
	if c.eng.Now() != 1000 || e.Now() != 1000 {
		t.Fatalf("clocks %v and %v, want 1000", c.eng.Now(), e.Now())
	}
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

// TestClusterSendValidation: unlinked sends, floor-violating delays and
// out-of-event sends all panic.
func TestClusterSendValidation(t *testing.T) {
	c := NewCluster()
	var a, b, lone *Domain
	a = c.AddDomain("a", func(d *Domain) {
		d.Engine().After(0, func() {
			expectPanic(t, "unlinked send", func() { d.Send(lone, 10, func() {}) })
			expectPanic(t, "below-floor send", func() { d.Send(b, 4, func() {}) })
		})
	})
	b = c.AddDomain("b", nil)
	lone = c.AddDomain("lone", nil)
	c.Link(a, b, 5)
	c.Run(100)
	expectPanic(t, "send outside event context", func() { a.Send(b, 5, func() {}) })
}

// TestClusterTopologyFixedAtRun: domains and links cannot be added once
// the cluster runs, and a cluster runs once.
func TestClusterTopologyFixedAtRun(t *testing.T) {
	c := NewCluster()
	a := c.AddDomain("a", nil)
	b := c.AddDomain("b", nil)
	expectPanic(t, "self-link", func() { c.Link(a, a, 5) })
	expectPanic(t, "zero floor", func() { c.Link(a, b, 0) })
	c.Run(10)
	expectPanic(t, "AddDomain after Run", func() { c.AddDomain("late", nil) })
	expectPanic(t, "Link after Run", func() { c.Link(a, b, 5) })
	expectPanic(t, "second Run", func() { c.Run(20) })
}
