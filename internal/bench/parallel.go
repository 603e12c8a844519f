package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SimWorkers is the drivers' one host-parallelism width. It bounds how
// many independent simulation jobs runJobs runs at once (each job is its
// own virtual machine: engine, device and filesystem). It cannot perturb
// virtual time: jobs compute into index-addressed slots that are printed
// only afterwards, so output is byte-identical for any value. Set it
// (e.g. from the -workers flag) before invoking a driver.
var SimWorkers = runtime.GOMAXPROCS(0)

// activeHelpers counts the *extra* goroutines across all concurrent
// runJobs calls (nested calls share the budget of SimWorkers-1). Slots are
// try-acquired: a job that cannot get one simply runs on the goroutine
// that requested it, so nesting can never deadlock.
var activeHelpers atomic.Int64

func acquireHelper() bool {
	limit := int64(SimWorkers - 1)
	for {
		cur := activeHelpers.Load()
		if cur >= limit {
			return false
		}
		if activeHelpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { activeHelpers.Add(-1) }

// jobPanic records a panic from job i so it can be re-raised
// deterministically.
type jobPanic struct {
	idx int
	val any
}

// runJobs executes fn(0..n-1), fanning out across up to SimWorkers
// goroutines, and returns once every job has finished. fn must write its
// result into a caller-owned slot for index i and must not touch shared
// state. If any jobs panic, the panic of the lowest index is re-raised
// after all jobs drain (so failure behaviour does not depend on worker
// count or scheduling).
func runJobs(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	var mu sync.Mutex
	var panics []jobPanic
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						panics = append(panics, jobPanic{i, r})
						mu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for extra := 0; extra < n-1 && acquireHelper(); extra++ {
		wg.Add(1)
		// The workers run whole simulations to completion and join before
		// runJobs returns; no virtual clock spans the fan-out.
		go func() { //easyio:allow nakedgo (host-side job pool; every engine a job touches is node-confined to its worker, and results merge under mu after the join)
			defer wg.Done()
			defer releaseHelper()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if len(panics) > 0 {
		first := panics[0]
		for _, p := range panics[1:] {
			if p.idx < first.idx {
				first = p
			}
		}
		panic(first.val)
	}
}
