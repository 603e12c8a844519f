package filebench

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

func setup(t *testing.T, cores int) (*sim.Engine, *caladan.Runtime, *core.FS) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 1<<30)
	opts := core.Options{Nova: nova.Options{NumInodes: 4096, EphemeralData: true}}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, caladan.New(eng, caladan.Options{Cores: cores, Seed: 5}), fs
}

func TestFileserverRuns(t *testing.T) {
	eng, rt, fs := setup(t, 2)
	res, err := Run(eng, rt, fs, Config{
		Personality: Fileserver, Cores: 2, Uthreads: 4,
		Files: 8, Measure: 20 * sim.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if res.Ops < 5 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Lat.Mean() <= 0 {
		t.Fatal("no latency recorded")
	}
	// No leaked working files: every iteration deletes what it created.
	names, _ := fs.Readdir(nil, "/fb")
	working := 0
	for _, n := range names {
		if n[0] == 'w' {
			working++
		}
	}
	// At most one in-flight file per uthread may remain (run cut off).
	if working > 4 {
		t.Fatalf("%d leaked working files", working)
	}
}

func TestWebserverContendsOnLog(t *testing.T) {
	eng, rt, fs := setup(t, 4)
	res, err := Run(eng, rt, fs, Config{
		Personality: Webserver, Cores: 4, Uthreads: 8,
		Files: 16, Measure: 20 * sim.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if res.Ops < 20 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// The shared log must have grown: contention is real, not skipped.
	st, err := fs.Stat(nil, "/fb/weblog")
	if err != nil || st.Size == 0 {
		t.Fatalf("weblog: %+v, %v", st, err)
	}
}

func TestDefaultsPerPersonality(t *testing.T) {
	if n := Webserver.fileSize(); n != 256<<10 {
		t.Fatalf("webserver read size = %d", n)
	}
	if n := Fileserver.fileSize(); n != 1<<20 {
		t.Fatalf("fileserver file size = %d", n)
	}
}
