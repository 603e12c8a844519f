package analysis

import "testing"

// hotFixturePrelude gives the noalloc/boxing fixtures a long-lived
// receiver with reusable buffers, mirroring the high-water idiom the
// contract certifies.
const hotFixturePrelude = `package fx
type Engine struct {
	buf   []byte
	queue []int
	idx   map[int]int
}
`

func TestNoAlloc(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"fresh make in hot root", hotFixturePrelude + `
//easyio:hotpath
func (e *Engine) step() { e.buf = make([]byte, 64) }
`, 1},
		{"reuse of high-water buffer", hotFixturePrelude + `
//easyio:hotpath
func (e *Engine) step() {
	b := e.buf[:0]
	b = append(b, 1)
	e.buf = b
}
`, 0},
		{"allocation reached through a callee", hotFixturePrelude + `
func (e *Engine) grow() { e.buf = make([]byte, 64) }
//easyio:hotpath
func (e *Engine) step() { e.grow() }
`, 1},
		{"coldpath callee discharges the allocation", hotFixturePrelude + `
//easyio:coldpath (high-water growth)
func (e *Engine) grow() { e.buf = make([]byte, 64) }
//easyio:hotpath
func (e *Engine) step() {
	if cap(e.buf) == 0 {
		e.grow()
	}
	e.buf = e.buf[:0]
}
`, 0},
		{"pointer literal in hot loop", hotFixturePrelude + `
//easyio:hotpath
func (e *Engine) step() {
	for i := 0; i < 8; i++ {
		p := &Engine{}
		_ = p
	}
}
`, 1},
		{"append into long-lived field is amortized", hotFixturePrelude + `
//easyio:hotpath
func (e *Engine) step() { e.queue = append(e.queue, 1) }
`, 0},
		{"map insert into long-lived field is amortized", hotFixturePrelude + `
//easyio:hotpath
func (e *Engine) step() { e.idx[1] = 2 }
`, 0},
		{"error arm is cold", hotFixturePrelude + `
func (e *Engine) pop() (int, error) { return 0, nil }
//easyio:hotpath
func (e *Engine) step() {
	if _, err := e.pop(); err != nil {
		e.buf = make([]byte, 64)
	}
}
`, 0},
		{"closure creation in hot root", hotFixturePrelude + `
func after(fn func()) {}
//easyio:hotpath
func (e *Engine) step() { after(func() { e.queue = e.queue[:0] }) }
`, 1},
		{"unannotated function allocates freely", hotFixturePrelude + `
func (e *Engine) setup() { e.buf = make([]byte, 64) }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, NoAlloc, "", tc.src), tc.want, "noalloc")
		})
	}
}

func TestBoxing(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"int into interface param", hotFixturePrelude + `
func sink(v any) {}
//easyio:hotpath
func (e *Engine) step() { sink(42) }
`, 1},
		{"pointer into interface is pointer-shaped", hotFixturePrelude + `
func sink(v any) {}
//easyio:hotpath
func (e *Engine) step() { sink(e) }
`, 0},
		{"fmt call in hot path", `package fx
import "fmt"
type Engine struct{ buf []byte }
//easyio:hotpath
func (e *Engine) step() { fmt.Println("tick") }
`, 1},
		{"boxing reached through a callee", hotFixturePrelude + `
func sink(v any) {}
func (e *Engine) emit() { sink(len(e.buf)) }
//easyio:hotpath
func (e *Engine) step() { e.emit() }
`, 1},
		{"boxing in cold branch discharged", `package fx
import "fmt"
type Engine struct{ buf []byte }
const debug = false
//easyio:hotpath
func (e *Engine) step() {
	if debug {
		fmt.Println("tick")
	}
}
`, 0},
		{"boxing outside any hot path", hotFixturePrelude + `
func sink(v any) {}
func (e *Engine) report() { sink(1) }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, Boxing, "", tc.src), tc.want, "boxing")
		})
	}
}

// simShapedFixture declares every internal/sim hot root the required-
// roots table demands, annotating all but the one under test.
func simShapedFixture(stepDoc string) string {
	return `package sim
type Engine struct{ n int }
type eventHeap []int
` + stepDoc + `
func (e *Engine) step() { e.n++ }
//easyio:hotpath
func (h *eventHeap) push() {}
//easyio:hotpath
func (h *eventHeap) pop() {}
//easyio:hotpath
func (h *eventHeap) remove() {}
`
}

func TestHotPathCover(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"required root missing annotation", "example.com/internal/sim",
			simShapedFixture(""), 1},
		{"all required roots annotated", "example.com/internal/sim",
			simShapedFixture("//easyio:hotpath"), 0},
		{"required root vanished entirely", "example.com/internal/stats", `package stats
type Gauge struct{ n int }
func (g *Gauge) Add(v int) { g.n += v }
`, 1},
		{"stale coldpath never discharged", "", hotFixturePrelude + `
//easyio:hotpath
func (e *Engine) step() { e.queue = e.queue[:0] }
//easyio:coldpath (unused)
func (e *Engine) grow() { e.buf = make([]byte, 64) }
`, 1},
		{"coldpath live via hot discharge", "", hotFixturePrelude + `
//easyio:coldpath (high-water growth)
func (e *Engine) grow() { e.buf = make([]byte, 64) }
//easyio:hotpath
func (e *Engine) step() {
	if cap(e.buf) == 0 {
		e.grow()
	}
}
`, 0},
		{"both annotations contradict", hotFixturePrelude + `
`, hotFixturePrelude + `
//easyio:hotpath
//easyio:coldpath
func (e *Engine) step() { e.queue = e.queue[:0] }
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, HotPathCover, tc.path, tc.src), tc.want, "hotpathcover")
		})
	}
}

// TestHotPathCoverDeadRoot checks annotation liveness when engine roots
// (cmd main functions) are present: a //easyio:hotpath function no main
// reaches certifies dead code.
func TestHotPathCoverDeadRoot(t *testing.T) {
	prelude := `package main
type Engine struct{ n int }
func main() { e := &Engine{}; e.step() }
`
	t.Run("hotpath on dead code flagged", func(t *testing.T) {
		src := prelude + `
//easyio:hotpath
func (e *Engine) step() { e.n++ }
//easyio:hotpath
func (e *Engine) orphan() { e.n++ }
`
		wantFindings(t, runFixture(t, HotPathCover, "", src), 1, "hotpathcover")
	})
	t.Run("reached hotpath is live", func(t *testing.T) {
		src := prelude + `
//easyio:hotpath
func (e *Engine) step() { e.n++ }
`
		wantFindings(t, runFixture(t, HotPathCover, "", src), 0, "hotpathcover")
	})
}
