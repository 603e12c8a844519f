package nova

import (
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// denseTable is the reference for the leafed inode table: the dense
// []*Inode it replaced, with allocInode's first-free-from-hint scan.
type denseTable struct {
	slots []*Inode
	hint  int
}

// next returns the number allocInode must hand out, or -1 when the table
// is full.
func (d *denseTable) next() int {
	n := len(d.slots)
	for k := 0; k < n; k++ {
		if num := (d.hint + k) % n; num >= 2 && d.slots[num] == nil {
			return num
		}
	}
	return -1
}

// TestInodeTableMatchesDense drives random Create/Unlink sequences over
// a table of three leaves and a few slots: fill to full, drain, mix and
// refill, so inode numbers cross both leaf boundaries and the hint wraps.
// After every operation each slot must equal the dense model's, a full
// table must return ErrNoInode exactly when the model is full, and a leaf
// must exist exactly when a live inode has been set in it since mount.
// Two remounts along the way must rebuild the same table, with leaves
// only where live inodes are.
func TestInodeTableMatchesDense(t *testing.T) {
	const numInodes = 3*inodeLeafSlots + 5
	phases := []struct {
		steps  int
		create float64
	}{{2000, 0.95}, {1200, 0.2}, {800, 0.5}, {1200, 0.95}}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			eng := sim.NewEngine()
			dev := pmem.New(eng, perfmodel.System(), 256<<20)
			opts := Options{NumInodes: numInodes}
			if err := Mkfs(dev, opts); err != nil {
				t.Fatal(err)
			}
			fs, err := Mount(dev, CPUMover{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			g := rng.New(seed)
			model := denseTable{slots: make([]*Inode, numInodes)}
			model.slots[RootIno] = fs.Root()
			touched := make([]bool, len(fs.inodes.leaves))
			touched[0] = true
			var live []string
			seen := map[int]bool{}
			wraps, fulls, serial := 0, 0, 0

			check := func(when string) {
				t.Helper()
				for num := 0; num < numInodes+inodeLeafSlots; num++ {
					var want *Inode
					if num < numInodes {
						want = model.slots[num]
					}
					if got := fs.Inode(uint32(num)); got != want {
						t.Fatalf("%s: Inode(%d) = %p, dense model has %p", when, num, got, want)
					}
				}
				for i, l := range fs.inodes.leaves {
					if (l != nil) != touched[i] {
						t.Fatalf("%s: leaf %d allocated=%v, want %v", when, i, l != nil, touched[i])
					}
				}
			}
			remount := func(when string) {
				t.Helper()
				free := fs.FreeBlocks()
				fs, err = Mount(dev, CPUMover{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if fs.FreeBlocks() != free {
					t.Fatalf("%s: remount FreeBlocks = %d, want %d", when, fs.FreeBlocks(), free)
				}
				clear(touched)
				for num, old := range model.slots {
					if old == nil {
						continue
					}
					got := fs.Inode(uint32(num))
					if got == nil || got.Kind != old.Kind || got.Nlink != old.Nlink || got.Size != old.Size {
						t.Fatalf("%s: remounted inode %d = %+v, want %+v", when, num, got, old)
					}
					model.slots[num] = got
					touched[num/inodeLeafSlots] = true
				}
				model.hint = 0
				check(when)
			}

			for p, ph := range phases {
				for step := 0; step < ph.steps; step++ {
					if len(live) == 0 || g.Float64() < ph.create {
						want := model.next()
						name := fmt.Sprintf("/f%d", serial)
						serial++
						f, err := fs.Create(nil, name)
						if want < 0 {
							if err != ErrNoInode {
								t.Fatalf("phase %d step %d: Create on a full table = %v, want ErrNoInode", p, step, err)
							}
							fulls++
							continue
						}
						if err != nil {
							t.Fatalf("phase %d step %d: Create = %v, dense model allocates %d", p, step, err, want)
						}
						if num := int(f.Inode().Num); num != want {
							t.Fatalf("phase %d step %d: Create allocated inode %d, dense model allocates %d", p, step, num, want)
						}
						if serial%4 == 0 {
							if _, err := fs.WriteAt(nil, f, int64(g.Intn(8))*BlockSize, make([]byte, 2*BlockSize)); err != nil {
								t.Fatal(err)
							}
						}
						f.Close()
						if (want+1)%numInodes < model.hint {
							wraps++
						}
						model.slots[want] = f.Inode()
						model.hint = (want + 1) % numInodes
						touched[want/inodeLeafSlots] = true
						seen[want] = true
						live = append(live, name)
					} else {
						k := g.Intn(len(live))
						st, err := fs.Stat(nil, live[k])
						if err != nil {
							t.Fatal(err)
						}
						if err := fs.Unlink(nil, live[k]); err != nil {
							t.Fatal(err)
						}
						model.slots[st.Ino] = nil
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					check(fmt.Sprintf("phase %d step %d", p, step))
				}
				if p == 1 || p == len(phases)-1 {
					remount(fmt.Sprintf("remount after phase %d", p))
				}
			}
			for _, num := range []int{2, inodeLeafSlots - 1, inodeLeafSlots, 2*inodeLeafSlots - 1, 2 * inodeLeafSlots, numInodes - 1} {
				if !seen[num] {
					t.Errorf("inode %d never allocated; the sequence does not cover the leaf boundaries", num)
				}
			}
			if wraps == 0 || fulls == 0 {
				t.Errorf("hint wrapped %d times and the table was full %d times; want both", wraps, fulls)
			}
		})
	}
}

// TestInodeTableClearAllocatesNothing: clearing a slot whose leaf is
// missing reads back nil and allocates no leaf, and reads never allocate.
func TestInodeTableClearAllocatesNothing(t *testing.T) {
	tb := newInodeTable(3*inodeLeafSlots + 5)
	if n := testing.AllocsPerRun(100, func() {
		tb.set(inodeLeafSlots+7, nil)
		_ = tb.get(2*inodeLeafSlots + 3)
	}); n != 0 {
		t.Fatalf("set(nil) and get on missing leaves allocate %v times per run", n)
	}
	for i, l := range tb.leaves {
		if l != nil {
			t.Fatalf("leaf %d allocated without a live inode", i)
		}
	}
	ino := &Inode{Num: 3*inodeLeafSlots + 4}
	tb.set(ino.Num, ino)
	if tb.get(ino.Num) != ino || tb.leaves[3] == nil || tb.leaves[0] != nil {
		t.Fatal("set on the last, partial leaf did not allocate exactly that leaf")
	}
}
