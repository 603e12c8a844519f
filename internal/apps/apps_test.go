package apps

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/codec"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/graph"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

func newEasyIO(t *testing.T, cores int, ephemeral bool) (*sim.Engine, *caladan.Runtime, *core.FS) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 1<<30)
	opts := core.Options{Nova: nova.Options{NumInodes: 2048, EphemeralData: ephemeral}}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cores, Seed: 4})
	return eng, rt, fs
}

func TestAppLoopProducesOps(t *testing.T) {
	eng, rt, fs := newEasyIO(t, 2, true)
	res, err := Run(eng, rt, fs, Config{Spec: AES, Cores: 2, Uthreads: 4, Seed: 1,
		Warmup: sim.Millisecond, Measure: 20 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if res.Ops < 10 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// AES is compute-dominated (~1.8ms/op): 2 cores -> ~1.1 kops/s.
	if thr := res.Throughput(); thr < 500 || thr > 3000 {
		t.Fatalf("AES throughput = %.0f ops/s, implausible", thr)
	}
}

func TestReadOnlyAppNoWrites(t *testing.T) {
	eng, rt, fs := newEasyIO(t, 1, true)
	before := fs.OpsWrite
	_, err := Run(eng, rt, fs, Config{Spec: Grep, Cores: 1, Seed: 2,
		Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	// Setup writes the input files; the loop itself must not write.
	setupWrites := fs.OpsWrite - before
	if setupWrites > 4 { // 1 input file prefilled in chunks? single write here
		t.Fatalf("grep loop wrote %d times", setupWrites)
	}
}

func TestSnappyPipelineFunctional(t *testing.T) {
	eng, rt, fs := newEasyIO(t, 1, false)
	plain := bytes.Repeat([]byte("easyio makes slow memory fast enough "), 2000)
	comp := codec.Compress(nil, plain)
	var gotLen int
	var roundtrip []byte
	rt.Spawn(0, "pipeline", func(task *caladan.Task) {
		in, _ := fs.Create(task, "/in.z")
		fs.WriteAt(task, in, 0, comp)
		n, err := SnappyDecompressFile(task, fs, "/in.z", "/out.txt")
		if err != nil {
			t.Error(err)
			return
		}
		gotLen = n
		out, _ := fs.Open(task, "/out.txt")
		roundtrip = make([]byte, out.Size())
		fs.ReadAt(task, out, 0, roundtrip)
	})
	eng.Run()
	eng.Shutdown()
	if gotLen != len(plain) || !bytes.Equal(roundtrip, plain) {
		t.Fatal("decompress pipeline mismatch")
	}
}

// TestSnappyDecompressKeepsExistingFile runs the kernel onto a longer
// existing file: it must refuse with ErrExist and leave the file as it
// was, not overwrite its head and keep a stale tail.
func TestSnappyDecompressKeepsExistingFile(t *testing.T) {
	eng, rt, fs := newEasyIO(t, 1, false)
	plain := bytes.Repeat([]byte("easyio makes slow memory fast enough "), 2000)
	comp := codec.Compress(nil, plain)
	old := bytes.Repeat([]byte{'z'}, len(plain)+100)
	var n int
	var err error
	var after []byte
	rt.Spawn(0, "pipeline", func(task *caladan.Task) {
		in, _ := fs.Create(task, "/in.z")
		fs.WriteAt(task, in, 0, comp)
		in.Close()
		out, _ := fs.Create(task, "/out.txt")
		fs.WriteAt(task, out, 0, old)
		n, err = SnappyDecompressFile(task, fs, "/in.z", "/out.txt")
		after = make([]byte, out.Size())
		fs.ReadAt(task, out, 0, after)
		out.Close()
	})
	eng.Run()
	eng.Shutdown()
	if n != 0 || err != nova.ErrExist {
		t.Fatalf("decompress onto an existing file = %d, %v; want 0, %v", n, err, nova.ErrExist)
	}
	if !bytes.Equal(after, old) {
		t.Fatal("decompress changed the existing file")
	}
}

func TestGrepFunctional(t *testing.T) {
	eng, rt, fs := newEasyIO(t, 1, false)
	content := []byte("alpha match one\nno hit here\nanother match line\nmatchless\n")
	var count int
	rt.Spawn(0, "grep", func(task *caladan.Task) {
		f, _ := fs.Create(task, "/log")
		fs.WriteAt(task, f, 0, content)
		c, err := GrepFile(task, fs, `\bmatch\b`, "/log")
		if err != nil {
			t.Error(err)
		}
		count = c
	})
	eng.Run()
	eng.Shutdown()
	if count != 2 {
		t.Fatalf("grep count = %d, want 2", count)
	}
}

func TestBFSFunctional(t *testing.T) {
	eng, rt, fs := newEasyIO(t, 1, false)
	g := graph.Random(500, 6, 3)
	blob := g.Marshal()
	wantReach := 0
	for _, d := range g.BFS(0) {
		if d >= 0 {
			wantReach++
		}
	}
	var got int
	rt.Spawn(0, "bfs", func(task *caladan.Task) {
		f, _ := fs.Create(task, "/graph")
		fs.WriteAt(task, f, 0, blob)
		r, err := BFSFromFile(task, fs, "/graph", 0)
		if err != nil {
			t.Error(err)
		}
		got = r
	})
	eng.Run()
	eng.Shutdown()
	if got != wantReach {
		t.Fatalf("reachable = %d, want %d", got, wantReach)
	}
}

var _ fsapi.FileSystem = (*core.FS)(nil)
