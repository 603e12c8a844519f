package nova

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// BenchmarkOverwrite1MB measures nova's write path for a 1 MB overwrite of
// an already-mapped file (the serving ingest write): allocation of 256
// fresh blocks, log append and commit, index update and the free of the
// 256 replaced blocks. Data copies are skipped so the metadata dominates.
func BenchmarkOverwrite1MB(b *testing.B) {
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 256<<20)
	opts := Options{NumInodes: 1024, EphemeralData: true}
	if err := Mkfs(dev, opts); err != nil {
		b.Fatal(err)
	}
	fs, err := Mount(dev, CPUMover{}, opts)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fs.Create(nil, "/f")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, 1<<20)
	if _, err := fs.WriteAt(nil, f, 0, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.WriteAt(nil, f, 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMountFresh measures mounting a freshly formatted 8 GB device
// with the default 65536-slot inode table: the inode-table scan and the
// allocator set-up every benchmark instance pays.
func BenchmarkMountFresh(b *testing.B) {
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 8<<30)
	if err := Mkfs(dev, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mount(dev, CPUMover{}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
