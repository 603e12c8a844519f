package caladan

import "github.com/easyio-sim/easyio/internal/invariants"

// ULock is a uthread-aware mutex: contended lockers park (releasing their
// core) and the lock is handed off FIFO, keeping the simulation
// deterministic. It is the filesystems' per-inode "level-1" lock.
//
// A nil *Task may lock and unlock as long as there is no contention; this
// supports single-threaded contexts (mount, recovery, functional tests)
// that run outside the uthread runtime.
type ULock struct {
	owner   *UThread
	held    bool // covers nil-task ownership too
	waiters []*UThread
}

// Lock acquires the mutex, parking the calling uthread while contended.
func (l *ULock) Lock(t *Task) {
	if !l.held {
		l.held = true
		if t != nil {
			l.owner = t.ut
			if invariants.Enabled {
				t.ut.heldULocks++
			}
		}
		return
	}
	if t == nil {
		panic("caladan: nil task blocked on contended ULock")
	}
	l.waiters = append(l.waiters, t.ut)
	t.Park()
	// Unlock handed ownership to us before waking.
	if invariants.Enabled {
		if l.owner != t.ut {
			panic("caladan: ULock FIFO handoff woke " + t.ut.name + " without ownership")
		}
		t.ut.heldULocks++
	}
}

// Unlock releases the mutex, handing it to the longest-waiting uthread.
func (l *ULock) Unlock() {
	if !l.held {
		panic("caladan: unlock of unlocked ULock")
	}
	if invariants.Enabled && l.owner != nil {
		l.owner.heldULocks--
		if l.owner.heldULocks < 0 {
			panic("caladan: ULock release count went negative for " + l.owner.name)
		}
	}
	if len(l.waiters) == 0 {
		l.held = false
		l.owner = nil
		return
	}
	// Shift-pop keeps the backing array: a [1:] reslice would make every
	// later Lock append reallocate once the slice reached its capacity.
	next := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters[len(l.waiters)-1] = nil
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.owner = next
	next.Wake()
}

// Held reports whether the lock is currently owned.
func (l *ULock) Held() bool { return l.held }

// WaitQueue parks uthreads until Broadcast — the filesystems' "level-2"
// completion gate (uthreads waiting for an in-flight DMA write to land).
type WaitQueue struct {
	waiters []*UThread
}

// Wait parks the calling uthread until the next Broadcast.
func (q *WaitQueue) Wait(t *Task) {
	q.waiters = append(q.waiters, t.ut)
	t.Park()
}

// Broadcast wakes all parked uthreads in FIFO order. The waiter slice is
// truncated, not dropped, so the next Wait reuses its backing array.
// Wake only queues a uthread (it never runs one), so no Wait can append
// to the slice while this loop reads it.
func (q *WaitQueue) Broadcast() {
	for i, ut := range q.waiters {
		ut.Wake()
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
}

// Len reports the number of parked uthreads.
func (q *WaitQueue) Len() int { return len(q.waiters) }
