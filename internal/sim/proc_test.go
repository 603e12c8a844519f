package sim

import (
	"fmt"
	"testing"
)

// TestProcPanicSurfacesFromRun: a panic inside a proc propagates out of
// Engine.Run on the caller's goroutine, where it can be recovered, and the
// proc is retired as done. Other parked procs still unwind on Shutdown.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		e := NewEngine()
		parkedUnwound := false
		e.StartProc("parked", func(p *Proc) {
			defer func() { parkedUnwound = true }()
			p.Pause()
		})
		bad := e.StartProc("bad", func(p *Proc) {
			p.Sleep(10)
			panic("boom")
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if got != "boom" {
			t.Fatalf("Run panicked with %v, want boom", got)
		}
		if e.Now() != 10 {
			t.Fatalf("panic surfaced at %v, want 10", e.Now())
		}
		if !bad.Done() {
			t.Fatal("panicked proc not marked done")
		}
		if _, live := e.procs[bad]; live {
			t.Fatal("panicked proc still registered with the engine")
		}
		e.Shutdown()
		if !parkedUnwound {
			t.Fatal("Shutdown after a proc panic did not unwind the parked proc")
		}
	})
}

// TestShutdownUnwindsInCreationOrder: Shutdown kills parked procs in
// creation order, not park order, and each kill runs the proc's deferred
// functions before the next proc is touched. An unstarted proc never ran
// fn, so it has nothing to unwind.
func TestShutdownUnwindsInCreationOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	const n = 5
	for i := 0; i < n; i++ {
		i := i
		// Later procs park first: park order is the reverse of creation.
		e.StartProc(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { order = append(order, i) }()
			p.Sleep(Duration(n - i))
			p.Pause()
		})
	}
	never := e.NewProc("unstarted", func(p *Proc) { order = append(order, -1) })
	e.Run()
	if len(order) != 0 {
		t.Fatalf("deferred cleanups ran before Shutdown: %v", order)
	}
	e.Shutdown()
	if len(order) != n {
		t.Fatalf("unwound %v, want %d procs", order, n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("unwind order %v, want creation order", order)
		}
	}
	if !never.Done() || len(e.procs) != 0 {
		t.Fatalf("Shutdown left %d procs registered", len(e.procs))
	}
}
