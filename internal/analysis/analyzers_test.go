package analysis

import (
	"strings"
	"testing"
)

func TestSimtime(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"time.Now flagged", `package fx
import "time"
func bad() int64 { return time.Now().UnixNano() }
`, 1},
		{"time.Sleep and time.Since flagged", `package fx
import "time"
func bad(t0 time.Time) {
	time.Sleep(time.Millisecond)
	_ = time.Since(t0)
}
`, 2},
		{"duration arithmetic allowed", `package fx
import "time"
func ok(d time.Duration) time.Duration { return d * 2 }
`, 0},
		{"aliased import still flagged", `package fx
import wall "time"
func bad() wall.Time { return wall.Now() }
`, 1},
		{"shadowing local not flagged", `package fx
import "time"
type clock struct{}
func (clock) Now() int { return 0 }
func bad() time.Time { return time.Now() }
func okShadow() int {
	time := clock{}
	return time.Now()
}
`, 1},
		{"no time import", `package fx
func ok() int { return 42 }
`, 0},
		{"suppressed with allow comment", `package fx
import "time"
//easyio:allow simtime (wall-clock ETA for the human operator only)
func progress() int64 { return time.Now().Unix() }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, Simtime, "", tc.src), tc.want, "simtime")
		})
	}
}

func TestDetrand(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"math/rand flagged", "", `package fx
import "math/rand"
func bad() int { return rand.Int() }
`, 1},
		{"crypto/rand flagged", "", `package fx
import (
	"crypto/rand"
	"io"
)
var _ io.Reader = rand.Reader
`, 1},
		{"math/rand/v2 flagged", "", `package fx
import "math/rand/v2"
func bad() int { return rand.Int() }
`, 1},
		{"internal/rng exempt", "github.com/easyio-sim/easyio/internal/rng", `package rng
import "math/rand"
func seedHelper() int64 { return rand.Int63() }
`, 0},
		{"clean package", "", `package fx
func ok() int { return 4 }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, Detrand, tc.path, tc.src), tc.want, "detrand")
		})
	}
}

func TestNakedGo(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"go statement flagged", `package fx
func bad() {
	go func() {}()
}
`, 1},
		{"go method call flagged", `package fx
type w struct{}
func (w) run() {}
func bad(x w) {
	go x.run()
}
`, 1},
		{"no goroutines", `package fx
func ok() { func() {}() }
`, 0},
		{"sanctioned site suppressed", `package fx
func launch(fn func()) {
	//easyio:allow nakedgo (sanctioned host worker pool)
	go fn()
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, NakedGo, "", tc.src), tc.want, "nakedgo")
		})
	}
}

func TestMapOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"append to outer slice flagged", `package fx
func bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`, 1},
		{"collect-and-sort allowed", `package fx
import "sort"
func ok(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`, 0},
		{"append to loop-local allowed", `package fx
func ok(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var dup []int
		dup = append(dup, vs...)
		n += len(dup)
	}
	return n
}
`, 0},
		{"method call in body flagged", `package fx
type sink struct{ n int }
func (s *sink) add(v int) { s.n += v }
func bad(m map[string]int, s *sink) {
	for _, v := range m {
		s.add(v)
	}
}
`, 1},
		{"delete and conversions allowed", `package fx
func ok(m map[int64]int64, cut int64) int64 {
	var total int64
	for k, v := range m {
		if k >= cut {
			delete(m, k)
			continue
		}
		total += int64(int(v))
	}
	return total
}
`, 0},
		{"slice range with calls allowed", `package fx
type sink struct{ n int }
func (s *sink) add(v int) { s.n += v }
func ok(xs []int, s *sink) {
	for _, v := range xs {
		s.add(v)
	}
}
`, 0},
		{"suppression above the loop", `package fx
type proc struct{}
func (proc) kill() {}
func shutdown(ps map[proc]struct{}) {
	//easyio:allow maporder (kill order is unobservable)
	for p := range ps {
		p.kill()
	}
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, MapOrder, "", tc.src), tc.want, "maporder")
		})
	}
}

const lockFixturePrelude = `package fx
type mu struct{ held bool }
func (m *mu) Lock()   {}
func (m *mu) Unlock() {}
type inode struct{ Mu mu }
`

func TestLockBalance(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"leak on plain return", lockFixturePrelude + `
func bad(ino *inode) int {
	ino.Mu.Lock()
	return 1
}
`, 1},
		{"balanced with defer", lockFixturePrelude + `
func ok(ino *inode) int {
	ino.Mu.Lock()
	defer ino.Mu.Unlock()
	return 1
}
`, 0},
		{"balanced manual early returns", lockFixturePrelude + `
func ok(ino *inode, dir bool) int {
	ino.Mu.Lock()
	if dir {
		ino.Mu.Unlock()
		return 0
	}
	ino.Mu.Unlock()
	return 1
}
`, 0},
		{"one early return misses unlock", lockFixturePrelude + `
func bad(ino *inode, dir bool) int {
	ino.Mu.Lock()
	if dir {
		return 0
	}
	ino.Mu.Unlock()
	return 1
}
`, 1},
		{"leak at function end", lockFixturePrelude + `
func bad(ino *inode) {
	ino.Mu.Lock()
}
`, 1},
		{"panic with lock held", lockFixturePrelude + `
func bad(ino *inode, n int) {
	ino.Mu.Lock()
	if n < 0 {
		panic("negative")
	}
	ino.Mu.Unlock()
}
`, 1},
		{"two locks one leaked", lockFixturePrelude + `
func bad(a, b *inode) {
	a.Mu.Lock()
	b.Mu.Lock()
	a.Mu.Unlock()
}
`, 1},
		{"lock helper skipped by name", lockFixturePrelude + `
func lockPair(a, b *inode) {
	a.Mu.Lock()
	b.Mu.Lock()
}
`, 0},
		{"early return inside a loop body", lockFixturePrelude + `
func bad(ino *inode, n int) int {
	ino.Mu.Lock()
	for i := 0; i < n; i++ {
		if i == 3 {
			return i
		}
	}
	ino.Mu.Unlock()
	return 0
}
`, 1},
		{"recursive leak reported once", lockFixturePrelude + `
func bad(ino *inode, n int) {
	ino.Mu.Lock()
	if n > 0 {
		bad(ino, n-1)
	}
}
`, 1},
		{"switch releases in every case", lockFixturePrelude + `
func ok(ino *inode, n int) int {
	ino.Mu.Lock()
	switch n {
	case 0:
		ino.Mu.Unlock()
		return 0
	default:
		ino.Mu.Unlock()
		return 1
	}
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, LockBalance, "", tc.src), tc.want, "lockbalance")
		})
	}
}

func TestAllowedNames(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"easyio:allow maporder (rationale here)", []string{"maporder"}},
		{"easyio:allow simtime detrand -- why", []string{"simtime", "detrand"}},
		{"easyio:allow all", []string{"all"}},
		{"just a comment", nil},
	}
	for _, tc := range cases {
		got := allowedNames(tc.text)
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("allowedNames(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"simtime", "lockbalance"})
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName: %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
