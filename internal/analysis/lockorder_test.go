package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// lockOrderPrelude declares a minimal mutex-shaped type plus two struct
// classes A and B whose Mu fields are the lock classes under test.
const lockOrderPrelude = `package fixture

type mu struct{ held bool }

func (m *mu) Lock()   {}
func (m *mu) Unlock() {}

type A struct{ Mu mu }
type B struct{ Mu mu }
`

func TestLockOrder(t *testing.T) {
	t.Run("two-lock inversion is a cycle", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func grabAB(a *A, b *B) {
	a.Mu.Lock()
	b.Mu.Lock()
	b.Mu.Unlock()
	a.Mu.Unlock()
}

func grabBA(a *A, b *B) {
	b.Mu.Lock()
	a.Mu.Lock()
	a.Mu.Unlock()
	b.Mu.Unlock()
}
`)
		wantFindings(t, diags, 1, "lockorder")
		if !strings.Contains(diags[0].Message, "lock-order cycle") {
			t.Fatalf("want a lock-order cycle report, got %q", diags[0].Message)
		}
		// The message prints the full acquisition cycle with evidence sites.
		if !strings.Contains(diags[0].Message, "fixture.A.Mu") ||
			!strings.Contains(diags[0].Message, "fixture.B.Mu") ||
			!strings.Contains(diags[0].Message, "acquired at") {
			t.Fatalf("cycle message lacks classes or evidence: %q", diags[0].Message)
		}
	})

	t.Run("consistent order is quiet", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func grabAB(a *A, b *B) {
	a.Mu.Lock()
	b.Mu.Lock()
	b.Mu.Unlock()
	a.Mu.Unlock()
}

func grabABAgain(a *A, b *B) {
	a.Mu.Lock()
	b.Mu.Lock()
	b.Mu.Unlock()
	a.Mu.Unlock()
}
`)
		wantFindings(t, diags, 0, "lockorder")
	})

	t.Run("same-class nesting without order", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func transfer(src, dst *A) {
	src.Mu.Lock()
	dst.Mu.Lock()
	dst.Mu.Unlock()
	src.Mu.Unlock()
}
`)
		wantFindings(t, diags, 1, "lockorder")
		if !strings.Contains(diags[0].Message, "same lock class") {
			t.Fatalf("want a same-class nest report, got %q", diags[0].Message)
		}
	})

	t.Run("lock-named helper sanctions same-class nesting", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func lockPair(src, dst *A) {
	src.Mu.Lock()
	dst.Mu.Lock()
	dst.Mu.Unlock()
	src.Mu.Unlock()
}
`)
		wantFindings(t, diags, 0, "lockorder")
	})

	t.Run("self-relock is a self-deadlock", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func double(a *A) {
	a.Mu.Lock()
	a.Mu.Lock()
	a.Mu.Unlock()
	a.Mu.Unlock()
}
`)
		wantFindings(t, diags, 1, "lockorder")
		if !strings.Contains(diags[0].Message, "self-deadlock") {
			t.Fatalf("want a self-deadlock report, got %q", diags[0].Message)
		}
	})

	t.Run("interprocedural cycle through callee summaries", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func grabB(b *B) {
	b.Mu.Lock()
	b.Mu.Unlock()
}

func grabA(a *A) {
	a.Mu.Lock()
	a.Mu.Unlock()
}

func underA(a *A, b *B) {
	a.Mu.Lock()
	grabB(b)
	a.Mu.Unlock()
}

func underB(a *A, b *B) {
	b.Mu.Lock()
	grabA(a)
	b.Mu.Unlock()
}
`)
		wantFindings(t, diags, 1, "lockorder")
		if !strings.Contains(diags[0].Message, "lock-order cycle") {
			t.Fatalf("want a lock-order cycle report, got %q", diags[0].Message)
		}
	})

	t.Run("same-class acquisition in a callee", func(t *testing.T) {
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func grabChild(a *A) {
	a.Mu.Lock()
	a.Mu.Unlock()
}

func parent(a, b *A) {
	a.Mu.Lock()
	grabChild(b)
	a.Mu.Unlock()
}
`)
		wantFindings(t, diags, 1, "lockorder")
		if !strings.Contains(diags[0].Message, "call to grabChild") {
			t.Fatalf("want an interprocedural same-class report, got %q", diags[0].Message)
		}
	})

	t.Run("ownership transfer discharges the held lock", func(t *testing.T) {
		// release unlocks its argument on every normal path, so the
		// subsequent same-class acquisition is a handoff, not a nest.
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func release(a *A) {
	a.Mu.Unlock()
}

func handoff(a, b *A) {
	a.Mu.Lock()
	release(a)
	b.Mu.Lock()
	b.Mu.Unlock()
}
`)
		wantFindings(t, diags, 0, "lockorder")
	})

	t.Run("deferred unlock holds to function end", func(t *testing.T) {
		// The defer releases only at exit, so the B acquisition nests
		// under A — the edge exists and a reversed pair closes the cycle.
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func deferredA(a *A, b *B) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Mu.Lock()
	b.Mu.Unlock()
}

func plainB(a *A, b *B) {
	b.Mu.Lock()
	a.Mu.Lock()
	a.Mu.Unlock()
	b.Mu.Unlock()
}
`)
		wantFindings(t, diags, 1, "lockorder")
		if !strings.Contains(diags[0].Message, "lock-order cycle") {
			t.Fatalf("want a lock-order cycle report, got %q", diags[0].Message)
		}
	})

	t.Run("two disjoint cycles", func(t *testing.T) {
		// A → B → C → A and D ⇄ E are separate components: each is one
		// finding anchored at its first edge, and the scan emits them in
		// class-name order.
		src := lockOrderPrelude + `
type C struct{ Mu mu }
type D struct{ Mu mu }
type E struct{ Mu mu }

func ab(a *A, b *B) { a.Mu.Lock(); b.Mu.Lock(); b.Mu.Unlock(); a.Mu.Unlock() }
func bc(b *B, c *C) { b.Mu.Lock(); c.Mu.Lock(); c.Mu.Unlock(); b.Mu.Unlock() }
func ca(c *C, a *A) { c.Mu.Lock(); a.Mu.Lock(); a.Mu.Unlock(); c.Mu.Unlock() }
func de(d *D, e *E) { d.Mu.Lock(); e.Mu.Lock(); e.Mu.Unlock(); d.Mu.Unlock() }
func ed(d *D, e *E) { e.Mu.Lock(); d.Mu.Lock(); d.Mu.Unlock(); e.Mu.Unlock() }
`
		diags := runFixture(t, LockOrder, "", src)
		wantFindings(t, diags, 2, "lockorder")
		for i, want := range []string{
			"lock-order cycle: fixture.A.Mu → fixture.B.Mu (acquired at fixture.go:15) → fixture.C.Mu (acquired at fixture.go:16) → fixture.A.Mu (acquired at fixture.go:17)",
			"lock-order cycle: fixture.D.Mu → fixture.E.Mu (acquired at fixture.go:18) → fixture.D.Mu (acquired at fixture.go:19)",
		} {
			if diags[i].Message != want {
				t.Errorf("finding %d:\n got %q\nwant %q", i, diags[i].Message, want)
			}
		}
		mod := BuildModule([]*Package{fixturePkg(t, "", src)})
		got := fmt.Sprint(mod.locks.cycles)
		if want := "[[fixture.A.Mu fixture.B.Mu fixture.C.Mu fixture.A.Mu] [fixture.D.Mu fixture.E.Mu fixture.D.Mu]]"; got != want {
			t.Errorf("cycles %s, want %s", got, want)
		}
	})

	t.Run("goroutine body runs on its own frame", func(t *testing.T) {
		// The spawned literal's acquisition does not nest under the
		// spawner's held lock: same-class, yet quiet.
		diags := runFixture(t, LockOrder, "", lockOrderPrelude+`
func spawn(a, b *A) {
	a.Mu.Lock()
	go func() {
		b.Mu.Lock()
		b.Mu.Unlock()
	}()
	a.Mu.Unlock()
}
`)
		wantFindings(t, diags, 0, "lockorder")
	})
}
