package nova

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// boolAllocator is the byte-per-block allocator the bitmap replaced, kept
// as the reference model for the bitmap's first-fit order.
type boolAllocator struct {
	dataOff int64
	nblocks int64
	used    []bool
	hint    int64
	free    int64
}

func (a *boolAllocator) allocRun(want int) (Run, bool) {
	if a.free == 0 || want <= 0 {
		return Run{}, false
	}
	start := a.hint
	for scanned := int64(0); scanned < a.nblocks; {
		i := (start + scanned) % a.nblocks
		if a.used[i] {
			scanned++
			continue
		}
		n := int64(0)
		for i+n < a.nblocks && n < int64(want) && !a.used[i+n] {
			n++
		}
		for k := int64(0); k < n; k++ {
			a.used[i+k] = true
		}
		a.free -= n
		a.hint = (i + n) % a.nblocks
		return Run{Off: a.dataOff + i*BlockSize, Pages: int(n)}, true
	}
	return Run{}, false
}

func (a *boolAllocator) alloc(pages int) ([]Run, bool) {
	var runs []Run
	got := 0
	for got < pages {
		r, ok := a.allocRun(pages - got)
		if !ok {
			for _, u := range runs {
				a.freeRun(u)
			}
			return nil, false
		}
		runs = append(runs, r)
		got += r.Pages
	}
	return runs, true
}

func (a *boolAllocator) freeRun(r Run) {
	i := (r.Off - a.dataOff) / BlockSize
	for k := int64(0); k < int64(r.Pages); k++ {
		if !a.used[i+k] {
			panic("nova: double free of block")
		}
		a.used[i+k] = false
	}
	a.free += int64(r.Pages)
}

func (a *boolAllocator) markUsed(off int64, pages int) {
	i := (off - a.dataOff) / BlockSize
	for k := int64(0); k < int64(pages); k++ {
		if !a.used[i+k] {
			a.used[i+k] = true
			a.free--
		}
	}
}

// TestBitmapAllocatorMatchesBoolReference runs random alloc, allocRun,
// freeRun and markUsed sequences on the bitmap and the reference, on block
// counts that are not multiples of 64, from hints near the end of the
// device and into a full device. Every returned run, the hint, the free
// count and every block's state must agree.
func TestBitmapAllocatorMatchesBoolReference(t *testing.T) {
	const dataOff = 3 * BlockSize
	for _, nblocks := range []int64{1, 5, 63, 64, 65, 127, 200, 1001} {
		for seed := uint64(1); seed <= 6; seed++ {
			g := rng.New(seed*1000 + uint64(nblocks))
			got := newAllocator(dataOff, dataOff+nblocks*BlockSize)
			ref := &boolAllocator{dataOff: dataOff, nblocks: nblocks, used: make([]bool, nblocks), free: nblocks}
			if seed%2 == 0 {
				got.hint = nblocks - 1 - g.Int63n(min(nblocks, 3))
				ref.hint = got.hint
			}
			var held []Run // runs the test may free
			maxWant := int(min(nblocks+3, 150))
			for op := 0; op < 400; op++ {
				switch g.Intn(5) {
				case 0, 1:
					want := 1 + g.Intn(maxWant)
					r, ok := got.allocRun(want)
					rr, rok := ref.allocRun(want)
					if r != rr || ok != rok {
						t.Fatalf("n=%d seed %d op %d: allocRun(%d) = %v %v, reference %v %v", nblocks, seed, op, want, r, ok, rr, rok)
					}
					if ok {
						held = append(held, r)
					}
				case 2:
					pages := 1 + g.Intn(maxWant)
					runs, ok := got.alloc(nil, pages)
					rruns, rok := ref.alloc(pages)
					if ok != rok || len(runs) != len(rruns) {
						t.Fatalf("n=%d seed %d op %d: alloc(%d) = %v %v, reference %v %v", nblocks, seed, op, pages, runs, ok, rruns, rok)
					}
					for k := range runs {
						if runs[k] != rruns[k] {
							t.Fatalf("n=%d seed %d op %d: alloc(%d) run %d = %v, reference %v", nblocks, seed, op, pages, k, runs[k], rruns[k])
						}
					}
					held = append(held, runs...)
				case 3:
					if len(held) == 0 {
						continue
					}
					k := g.Intn(len(held))
					r := held[k]
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					got.freeRun(r)
					ref.freeRun(r)
				case 4:
					i := g.Int63n(nblocks)
					pages := 1 + int(g.Int63n(min(nblocks-i, 80)))
					for k := i; k < i+int64(pages); k++ {
						if !ref.used[k] {
							held = append(held, Run{Off: dataOff + k*BlockSize, Pages: 1})
						}
					}
					got.markUsed(dataOff+i*BlockSize, pages)
					ref.markUsed(dataOff+i*BlockSize, pages)
				}
				if got.hint != ref.hint || got.FreeBlocks() != ref.free {
					t.Fatalf("n=%d seed %d op %d: hint %d free %d, reference hint %d free %d", nblocks, seed, op, got.hint, got.FreeBlocks(), ref.hint, ref.free)
				}
				for k := int64(0); k < nblocks; k++ {
					if bit := got.used[k>>6]>>(k&63)&1 == 1; bit != ref.used[k] {
						t.Fatalf("n=%d seed %d op %d: block %d used=%v, reference %v", nblocks, seed, op, k, bit, ref.used[k])
					}
				}
			}
			// Fill the device, then check that both report it full.
			for {
				r, ok := got.allocRun(maxWant)
				rr, rok := ref.allocRun(maxWant)
				if r != rr || ok != rok {
					t.Fatalf("n=%d seed %d fill: allocRun = %v %v, reference %v %v", nblocks, seed, r, ok, rr, rok)
				}
				if !ok {
					break
				}
			}
			if got.FreeBlocks() != 0 || got.hint != ref.hint {
				t.Fatalf("n=%d seed %d: full device has %d free blocks, hint %d (reference %d)", nblocks, seed, got.FreeBlocks(), got.hint, ref.hint)
			}
			if _, ok := got.alloc(nil, 1); ok {
				t.Fatalf("n=%d seed %d: alloc succeeded on a full device", nblocks, seed)
			}
		}
	}
}

// TestFreeRunDoubleFreePanics checks that freeing a block twice, alone or
// inside a run that straddles a bitmap word, still panics.
func TestFreeRunDoubleFreePanics(t *testing.T) {
	const dataOff = 3 * BlockSize
	a := newAllocator(dataOff, dataOff+130*BlockSize)
	a.hint = 60
	r, _ := a.allocRun(10) // blocks 60..69 straddle words 0 and 1
	a.freeRun(Run{Off: r.Off + 5*BlockSize, Pages: 1})
	for _, bad := range []Run{r, {Off: r.Off + 5*BlockSize, Pages: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("freeRun(%v) over a free block did not panic", bad)
				}
			}()
			a.freeRun(bad)
		}()
	}
}
