package nova

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// TestBlockIndexMatchesMap drives the radix index and a map model with the
// same random set/del sequences over dense, sparse and far page sets, and
// checks every answer, the count and the ascending walk against the model.
func TestBlockIndexMatchesMap(t *testing.T) {
	pageSets := []struct {
		name string
		page func(g *rng.Rand) int64
	}{
		{"dense", func(g *rng.Rand) int64 { return g.Int63n(2*leafPages + 7) }},
		{"sparse", func(g *rng.Rand) int64 { return g.Int63n(40)*3*leafPages + g.Int63n(5) }},
		{"far", func(g *rng.Rand) int64 {
			if g.Intn(4) == 0 {
				return 1<<28 + g.Int63n(6)
			}
			return g.Int63n(12)
		}},
	}
	for _, ps := range pageSets {
		t.Run(ps.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				g := rng.New(seed)
				ino := &Inode{index: &blockIndex{}}
				ix := ino.index
				model := map[int64]int64{}
				for op := 0; op < 3000; op++ {
					pg := ps.page(g)
					if g.Intn(3) == 0 {
						ix.del(pg)
						delete(model, pg)
					} else {
						b := (1 + g.Int63n(1<<20)) * BlockSize
						if old := ix.set(pg, b); old != model[pg] {
							t.Fatalf("seed %d op %d: set(%d) replaced %d, model %d", seed, op, pg, old, model[pg])
						}
						model[pg] = b
					}
					q := ps.page(g)
					want := int64(-1)
					if b, ok := model[q]; ok {
						want = b
					}
					if got := ino.BlockFor(q); got != want {
						t.Fatalf("seed %d op %d: BlockFor(%d) = %d, model %d", seed, op, q, got, want)
					}
				}
				checkIndexAgainst(t, ix, model, 0)
				checkIndexAgainst(t, ix, model, ps.page(g))
				if ix.get(-1) != 0 || ino.BlockFor(-1) != -1 || ino.BlockFor(-leafPages) != -1 {
					t.Fatal("a negative page must read as a hole")
				}
				// Truncate's pattern: delete from inside the walk.
				from := ps.page(g)
				ix.walk(from, func(pg, _ int64) { ix.del(pg) })
				for pg := range model {
					if pg >= from {
						delete(model, pg)
					}
				}
				checkIndexAgainst(t, ix, model, 0)
			}
		})
	}
}

// checkIndexAgainst asserts that ix holds exactly the model's pairs: len
// matches, and walk(from) visits the pairs at or after from in ascending
// order.
func checkIndexAgainst(t *testing.T, ix *blockIndex, model map[int64]int64, from int64) {
	t.Helper()
	if ix.len() != len(model) {
		t.Fatalf("len = %d, model %d", ix.len(), len(model))
	}
	want := 0
	for pg := range model {
		if pg >= from {
			want++
		}
	}
	visited, last := 0, int64(-1)
	ix.walk(from, func(pg, b int64) {
		if pg <= last || pg < from {
			t.Fatalf("walk from %d visited page %d after %d", from, pg, last)
		}
		if model[pg] != b {
			t.Fatalf("walk visited (%d, %d), model holds %d", pg, b, model[pg])
		}
		last = pg
		visited++
	})
	if visited != want {
		t.Fatalf("walk from %d visited %d pages, model has %d", from, visited, want)
	}
}

// TestOverwriteMappedNoAllocs pins the steady-state index work of a 1 MB
// overwrite — applyWriteEntry over already-mapped pages, then ExtentRuns
// over the same span — at zero heap allocations.
func TestOverwriteMappedNoAllocs(t *testing.T) {
	const pages = 256
	ino := &Inode{index: &blockIndex{}}
	entries := [2]Entry{}
	for k := range entries {
		entries[k] = Entry{Type: etWrite, Size: pages * BlockSize, Pages: pages,
			BlockOff: int64(1+k*pages) * BlockSize}
	}
	replaced := make([]Run, 0, pages)
	extents := make([]Run, 0, pages)
	ino.applyWriteEntry(&entries[1], replaced[:0])
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		replaced = ino.applyWriteEntry(&entries[k], replaced[:0])
		extents = ino.ExtentRuns(extents[:0], 0, pages*BlockSize)
		k ^= 1
	})
	if allocs != 0 {
		t.Fatalf("steady-state overwrite allocates %.1f times per op, want 0", allocs)
	}
	if len(replaced) != 1 || replaced[0].Pages != pages || len(extents) != 1 || extents[0].Pages != pages {
		t.Fatalf("replaced %v, extents %v: want one %d-page run each", replaced, extents, pages)
	}
}
