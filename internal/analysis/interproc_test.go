package analysis

import "testing"

// parkFixturePrelude declares the minimal caladan-shaped surface the
// protocol analyzers key on: a Task with Park/Wait, a WaitQueue gate,
// and a FileSystem interface that makes methods syscall-visible entries.
const parkFixturePrelude = `package fx
type Task struct{ parked bool }
func (t *Task) Park() { t.parked = true }
func (t *Task) Wait() { t.parked = true }
type WaitQueue struct{ n int }
func (q *WaitQueue) Wait(t *Task) { t.Park() }
type FileSystem interface {
	WriteAt(t *Task, n int) int
	ReadAt(t *Task, n int) int
}
type FS struct{ gate WaitQueue }
`

func TestParkContext(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"nil literal into gate", parkFixturePrelude + `
func bad(q *WaitQueue) { q.Wait(nil) }
`, 1},
		{"entry parks unguarded", parkFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int { t.Park(); return n }
`, 1},
		{"entry guards with t != nil", parkFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	if t != nil {
		t.Park()
	}
	return n
}
`, 0},
		{"entry fail-fast panic guard", parkFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	if t == nil {
		panic("nil task")
	}
	t.Park()
	return n
}
`, 0},
		{"blocking reached through a callee", parkFixturePrelude + `
func (fs *FS) waitGate(t *Task) { fs.gate.Wait(t) }
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.waitGate(t)
	return n
}
`, 1},
		{"callee blocking fenced at the entry", parkFixturePrelude + `
func (fs *FS) waitGate(t *Task) { fs.gate.Wait(t) }
func (fs *FS) WriteAt(t *Task, n int) int {
	if t != nil {
		fs.waitGate(t)
	}
	return n
}
`, 0},
		{"nil literal into a transitively blocking callee", parkFixturePrelude + `
func park(t *Task) { t.Park() }
func bad() { park(nil) }
`, 1},
		{"disjunct guard covers the sync path", parkFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	if n == 0 || t == nil {
		return 0
	}
	t.Park()
	return n
}
`, 0},
		{"recursion propagates blocking to the entry", parkFixturePrelude + `
func (fs *FS) recPark(t *Task, n int) {
	if n == 0 {
		t.Park()
		return
	}
	fs.recPark(t, n-1)
}
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.recPark(t, n)
	return n
}
`, 1},
		{"non-entry method may block on its param", parkFixturePrelude + `
func (fs *FS) helper(t *Task) { t.Park() }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, ParkContext, "", tc.src), tc.want, "parkcontext")
		})
	}
}

// chargeFixturePrelude models the fs.Charge(t, cpu.Const) accounting
// surface chargebalance audits.
const chargeFixturePrelude = `package fx
type Task struct{}
type CPU struct{ Syscall, MetaAppend, IndexBase int64 }
type FileSystem interface {
	WriteAt(t *Task, n int) int
	Stat(t *Task) int
}
type FS struct{ cpu CPU; acc int64 }
func (fs *FS) Charge(t *Task, cost int64) { fs.acc += cost }
`

func TestChargeBalance(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"entry never charges", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int { return n }
`, 1},
		{"entry charges once", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	return n
}
`, 0},
		{"charge only on some paths", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	if n > 0 {
		fs.Charge(t, fs.cpu.Syscall)
	}
	return n
}
`, 1},
		{"double charge on every path", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	fs.Charge(t, fs.cpu.Syscall)
	return n
}
`, 1},
		{"second interaction only raises the max", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	if n > 4096 {
		fs.Charge(t, fs.cpu.Syscall)
	}
	return n
}
`, 0},
		{"one compound charge counts each constant once", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall+fs.cpu.MetaAppend+fs.cpu.MetaAppend/4)
	return n
}
`, 0},
		{"charge delegated to a callee", chargeFixturePrelude + `
func (fs *FS) enter(t *Task) { fs.Charge(t, fs.cpu.Syscall) }
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.enter(t)
	return n
}
`, 0},
		{"caller and callee both charge", chargeFixturePrelude + `
func (fs *FS) enter(t *Task) { fs.Charge(t, fs.cpu.Syscall) }
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	fs.enter(t)
	return n
}
`, 1},
		{"per-iteration charge widens only the max", chargeFixturePrelude + `
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	for i := 0; i < n; i++ {
		fs.Charge(t, fs.cpu.IndexBase)
	}
	return n
}
`, 0},
		{"recursive callee converges via widening", chargeFixturePrelude + `
func (fs *FS) rec(t *Task, n int) {
	if n == 0 {
		return
	}
	fs.Charge(t, fs.cpu.MetaAppend)
	fs.rec(t, n-1)
}
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	fs.rec(t, n)
	return n
}
`, 0},
		{"mutual recursion double-charging the entry", chargeFixturePrelude + `
func (fs *FS) ping(t *Task) { fs.Charge(t, fs.cpu.Syscall); fs.pong(t) }
func (fs *FS) pong(t *Task) { fs.ping(t) }
func (fs *FS) WriteAt(t *Task, n int) int {
	fs.Charge(t, fs.cpu.Syscall)
	fs.ping(t)
	return n
}
`, 1},
		{"non-entry helper is exempt", chargeFixturePrelude + `
func (fs *FS) helper(t *Task, n int) int { return n }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, ChargeBalance, "", tc.src), tc.want, "chargebalance")
		})
	}
}

// cbFixturePrelude models the completion-buffer surface: a channel whose
// CompletedSN is a volatile read, a WaitQueue whose Wait is the gate, and
// a DurableSN that is exempt by name.
const cbFixturePrelude = `package fx
type Task struct{}
func (t *Task) Park() {}
type WaitQueue struct{ n int }
func (q *WaitQueue) Wait(t *Task) {}
type Chan struct{ sn, dsn uint64 }
func (c *Chan) CompletedSN() uint64 { return c.sn }
func (c *Chan) DurableSN() uint64 { return c.dsn }
`

func TestCBGate(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"ungated read flagged", "", cbFixturePrelude + `
func bad(c *Chan) uint64 { return c.CompletedSN() }
`, 1},
		{"locally gated read allowed", "", cbFixturePrelude + `
func ok(c *Chan, q *WaitQueue, t *Task) uint64 {
	q.Wait(t)
	return c.CompletedSN()
}
`, 0},
		{"durable SN exempt", "", cbFixturePrelude + `
func ok(c *Chan) uint64 { return c.DurableSN() }
`, 0},
		{"gate in every calling context", "", cbFixturePrelude + `
func read(c *Chan) uint64 { return c.CompletedSN() }
func caller(c *Chan, q *WaitQueue, t *Task) uint64 {
	q.Wait(t)
	return read(c)
}
`, 0},
		{"one ungated calling context taints the read", "", cbFixturePrelude + `
func read(c *Chan) uint64 { return c.CompletedSN() }
func gated(c *Chan, q *WaitQueue, t *Task) uint64 {
	q.Wait(t)
	return read(c)
}
func ungated(c *Chan) uint64 { return read(c) }
`, 1},
		{"gate only on one branch flagged", "", cbFixturePrelude + `
func bad(c *Chan, q *WaitQueue, t *Task, poll bool) uint64 {
	if !poll {
		q.Wait(t)
	}
	return c.CompletedSN()
}
`, 1},
		{"dma package exempt", "example.com/internal/dma", cbFixturePrelude + `
func harvest(c *Chan) uint64 { return c.CompletedSN() }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, CBGate, tc.path, tc.src), tc.want, "cbgate")
		})
	}
}

// TestLockBalanceInterproc exercises the ownership-transfer verification:
// a callee whose summary proves it releases the caller's lock on every
// normal path discharges the obligation without an //easyio:allow.
func TestLockBalanceInterproc(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"tail call releases on every path", lockFixturePrelude + `
func release(ino *inode) int { ino.Mu.Unlock(); return 0 }
func ok(ino *inode) int {
	ino.Mu.Lock()
	return release(ino)
}
`, 0},
		{"callee releases on every branch", lockFixturePrelude + `
func release(ino *inode, err bool) int {
	if err {
		ino.Mu.Unlock()
		return 1
	}
	ino.Mu.Unlock()
	return 0
}
func ok(ino *inode, err bool) int {
	ino.Mu.Lock()
	return release(ino, err)
}
`, 0},
		{"callee does not release", lockFixturePrelude + `
func consume(ino *inode) int { return 0 }
func bad(ino *inode) int {
	ino.Mu.Lock()
	return consume(ino)
}
`, 1},
		{"callee releases only on one path", lockFixturePrelude + `
func maybe(ino *inode, err bool) int {
	if err {
		return 1
	}
	ino.Mu.Unlock()
	return 0
}
func bad(ino *inode, err bool) int {
	ino.Mu.Lock()
	return maybe(ino, err)
}
`, 1},
		{"assigned call discharges before return", lockFixturePrelude + `
func release(ino *inode) int { ino.Mu.Unlock(); return 0 }
func ok(ino *inode) int {
	ino.Mu.Lock()
	n := release(ino)
	return n + 1
}
`, 0},
		{"call in an if init discharges", lockFixturePrelude + `
func release(ino *inode) int { ino.Mu.Unlock(); return 0 }
func ok(ino *inode) int {
	ino.Mu.Lock()
	if n := release(ino); n > 0 {
		return n
	}
	return 0
}
`, 0},
		{"deferred callee release", lockFixturePrelude + `
func release(ino *inode) int { ino.Mu.Unlock(); return 0 }
func ok(ino *inode) int {
	ino.Mu.Lock()
	defer release(ino)
	return 1
}
`, 0},
		{"transfer of one lock still leaks the other", lockFixturePrelude + `
func release(ino *inode) int { ino.Mu.Unlock(); return 0 }
func bad(a, b *inode) int {
	a.Mu.Lock()
	b.Mu.Lock()
	return release(a)
}
`, 1},
		{"callee releasing a different argument", lockFixturePrelude + `
func release(ino *inode) int { ino.Mu.Unlock(); return 0 }
func bad(a, b *inode) int {
	a.Mu.Lock()
	return release(b)
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, LockBalance, "", tc.src), tc.want, "lockbalance")
		})
	}
}
