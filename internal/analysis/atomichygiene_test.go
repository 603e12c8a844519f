package analysis

import (
	"strings"
	"testing"
)

func TestAtomicHygiene(t *testing.T) {
	t.Run("mixed atomic and plain access", func(t *testing.T) {
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync/atomic"

type Counter struct{ n int64 }

func (c *Counter) Inc() { atomic.AddInt64(&c.n, 1) }

func (c *Counter) Read() int64 { return c.n }
`)
		wantFindings(t, diags, 1, "atomichygiene")
		if !strings.Contains(diags[0].Message, "sync/atomic elsewhere") {
			t.Fatalf("want a mixed-access report, got %q", diags[0].Message)
		}
	})

	t.Run("consistently atomic is quiet", func(t *testing.T) {
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync/atomic"

type Counter struct{ n int64 }

func (c *Counter) Inc() { atomic.AddInt64(&c.n, 1) }

func (c *Counter) Read() int64 { return atomic.LoadInt64(&c.n) }
`)
		wantFindings(t, diags, 0, "atomichygiene")
	})

	t.Run("plain read of a mutex-guarded field", func(t *testing.T) {
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
}

func (s *Store) Set(v int) {
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
}

func (s *Store) Get() int { return s.n }
`)
		wantFindings(t, diags, 1, "atomichygiene")
		if !strings.Contains(diags[0].Message, "plain read outside the lock") {
			t.Fatalf("want a lock-region leak report, got %q", diags[0].Message)
		}
	})

	t.Run("all access under the lock is quiet", func(t *testing.T) {
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
}

func (s *Store) Set(v int) {
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
}

func (s *Store) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`)
		wantFindings(t, diags, 0, "atomichygiene")
	})

	t.Run("unguarded write races with the lock region", func(t *testing.T) {
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
}

func (s *Store) Set(v int) {
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
}

func (s *Store) Reset() { s.n = 0 }
`)
		wantFindings(t, diags, 1, "atomichygiene")
		if !strings.Contains(diags[0].Message, "unguarded write races") {
			t.Fatalf("want an unguarded-write report, got %q", diags[0].Message)
		}
	})

	t.Run("constructors are exempt", func(t *testing.T) {
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
}

func NewStore() *Store {
	s := &Store{}
	s.n = 7
	return s
}

func (s *Store) Set(v int) {
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
}
`)
		wantFindings(t, diags, 0, "atomichygiene")
	})

	t.Run("branch that skips the lock is not guarded", func(t *testing.T) {
		// Must-locked intersection: one path locks, the other does not,
		// so the write is judged unguarded.
		diags := runFixture(t, AtomicHygiene, "", `package fixture

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
}

func (s *Store) Set(v int) {
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
}

func (s *Store) Maybe(v int, fast bool) {
	if !fast {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.n = v
}
`)
		wantFindings(t, diags, 1, "atomichygiene")
	})

	// Reads in the parts of a statement that are not its body: each is a
	// plain read of a guarded field outside the lock.
	const guarded = `package fixture

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
	ch chan int
	v  any
}

func (s *Store) Set(n int, ch chan int, v any) {
	s.mu.Lock()
	s.n, s.ch, s.v = n, ch, v
	s.mu.Unlock()
}
`
	for _, tc := range []struct{ name, src string }{
		{"read in a case expression", `
func (s *Store) Sign() int {
	switch {
	case s.n > 0:
		return 1
	}
	return 0
}
`},
		{"read in a for post statement", `
func (s *Store) Count() (k int) {
	for i := 0; i < 8; i += s.n {
		k++
	}
	return k
}
`},
		{"read in a select comm statement", `
func (s *Store) Recv() int {
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}
`},
		{"read in a type switch guard", `
func (s *Store) IsInt() bool {
	switch s.v.(type) {
	case int:
		return true
	}
	return false
}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, AtomicHygiene, "", guarded+tc.src)
			wantFindings(t, diags, 1, "atomichygiene")
			if !strings.Contains(diags[0].Message, "plain read outside the lock") {
				t.Fatalf("want a lock-region leak report, got %q", diags[0].Message)
			}
		})
	}
}
