//go:build go1.23

// The build constraint raises this file's language version to 1.23 for
// iter.Pull while the module's go line stays at 1.22: the nested
// cmd/easyio-benchmark module (go 1.22, replace => ../..) would otherwise
// refuse to build with "updates to go.mod needed".

package sim

import "iter"

// start creates the runtime coroutine backing the proc on first resume.
// iter.Pull allocates the coroutine and its stack, so this lives behind
// //easyio:coldpath: it happens once per proc lifetime, never in steady
// state.
//
//easyio:coldpath (one-time coroutine creation per proc)
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(p.body)
}

// body is the coroutine's function. Its deferred cleanup runs on every
// exit: a normal return, a kill (stop makes yield return false, Pause
// panics killed{}, and the sentinel is swallowed here), or a panic in fn,
// which is re-raised and surfaces from the next() call in Resume on the
// goroutine running the engine.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.state = procDone
		delete(p.eng.procs, p)
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
}
