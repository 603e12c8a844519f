package pmem_test

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// TestMkfsLeavesInodeTableAbsent: formatting zeroes every inode slot, but
// those stores land on never-written pages, so the only inode-table page
// with backing storage is the root inode's. The formatted filesystem
// still mounts and works.
func TestMkfsLeavesInodeTableAbsent(t *testing.T) {
	const inodes = 16384
	dev := pmem.New(sim.NewEngine(), perfmodel.System(), 1<<30)
	opts := nova.Options{NumInodes: inodes}
	if err := nova.Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	first := int64(nova.InodeTableOff / nova.BlockSize)
	end := int64((nova.InodeTableOff + inodes*nova.InodeSlotSize) / nova.BlockSize)
	rootPg := int64((nova.InodeTableOff + nova.RootIno*nova.InodeSlotSize) / nova.BlockSize)
	for pg := first; pg < end; pg++ {
		if got := !dev.Absent(pg*nova.BlockSize, nova.BlockSize); got != (pg == rootPg) {
			t.Fatalf("inode-table page %d present=%v after Mkfs (root inode is on page %d)", pg, got, rootPg)
		}
	}
	fs, err := nova.Mount(dev, nova.CPUMover{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(nil, "/a")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}
