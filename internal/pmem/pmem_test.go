package pmem

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

func newDev() (*sim.Engine, *Device) {
	eng := sim.NewEngine()
	return eng, New(eng, perfmodel.MicroNode(), 1<<30)
}

func TestReadWriteRoundtrip(t *testing.T) {
	_, d := newDev()
	data := []byte("hello slow memory")
	d.WriteAt(12345, data)
	got := make([]byte, len(data))
	d.ReadAt(got, 12345)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	_, d := newDev()
	b := []byte{1, 2, 3, 4}
	d.ReadAt(b, 999)
	for _, v := range b {
		if v != 0 {
			t.Fatalf("unwritten read = %v", b)
		}
	}
}

func TestCrossPageWrite(t *testing.T) {
	_, d := newDev()
	data := make([]byte, 3*pageSize+17)
	rng.New(1).Bytes(data)
	off := int64(pageSize - 5)
	d.WriteAt(off, data)
	got := make([]byte, len(data))
	d.ReadAt(got, off)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
	// Byte just before and after remain zero.
	b := make([]byte, 1)
	d.ReadAt(b, off-1)
	if b[0] != 0 {
		t.Fatal("byte before write dirtied")
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		_, d := newDev()
		type w struct {
			off  int64
			data []byte
		}
		var writes []w
		for i := 0; i < 20; i++ {
			n := 1 + g.Intn(3*pageSize)
			off := g.Int63n(d.Size() - int64(n))
			data := make([]byte, n)
			g.Bytes(data)
			d.WriteAt(off, data)
			writes = append(writes, w{off, data})
		}
		// Last write at each offset wins: verify the final write fully.
		last := writes[len(writes)-1]
		got := make([]byte, len(last.data))
		d.ReadAt(got, last.off)
		return bytes.Equal(got, last.data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWrite8Read8(t *testing.T) {
	_, d := newDev()
	d.Write8(4096-4, 0x1122334455667788) // cross page boundary
	if got := d.Read8(4096 - 4); got != 0x1122334455667788 {
		t.Fatalf("got %#x", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, d := newDev()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.WriteAt(d.Size()-2, []byte{1, 2, 3})
}

func TestSingleCPUWriteFlowRate(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 2_000_000
	var doneAt sim.Time = -1
	d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: n, OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	want := float64(n) / m.CPUWriteRate * 1e9
	if doneAt < 0 {
		t.Fatal("flow never completed")
	}
	if math.Abs(float64(doneAt)-want) > want*0.01 {
		t.Fatalf("completed at %v, want ~%.0fns", doneAt, want)
	}
}

func TestConcurrentCPUWritersDegrade(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 1_000_000
	done := 0
	var last sim.Time
	for i := 0; i < 4; i++ {
		d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: n, OnDone: func() { done++; last = eng.Now() }})
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	perCore := m.CPURate(true, 4)
	want := float64(n) / perCore * 1e9
	if math.Abs(float64(last)-want) > want*0.02 {
		t.Fatalf("4-writer completion at %v, want ~%.0f (rate %.2f GB/s)", last, want, perCore/1e9)
	}
	if perCore >= m.CPUWriteRate {
		t.Fatal("no degradation under concurrency")
	}
}

func TestDMAWriteSaturatesNodeCap(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 10_000_000
	var doneAt sim.Time
	d.StartFlow(FlowSpec{Write: true, Kind: FlowDMA, Bytes: n, OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	// One channel's intrinsic 9 GB/s exceeds both the engine cap and the
	// DIMM cap (6.6), so the flow runs at 6.6 GB/s.
	want := float64(n) / m.WriteCap * 1e9
	if math.Abs(float64(doneAt)-want) > want*0.01 {
		t.Fatalf("done at %v, want ~%.0f", doneAt, want)
	}
}

func TestDMAReadEngineCap(t *testing.T) {
	eng, d := newDev()
	m := d.Model()
	const n = 5_000_000
	done := 0
	var last sim.Time
	for i := 0; i < 4; i++ {
		d.StartFlow(FlowSpec{Write: false, Kind: FlowDMA, Bytes: n, OnDone: func() { done++; last = eng.Now() }})
	}
	eng.Run()
	// 4 channels * 2.9 = 11.6 intrinsic but engine read cap is 5.6 GB/s.
	want := float64(4*n) / m.DMAReadCap * 1e9
	if math.Abs(float64(last)-want) > want*0.02 {
		t.Fatalf("done at %v, want ~%.0f", last, want)
	}
	_ = done
}

func TestWeightedSharing(t *testing.T) {
	eng, d := newDev()
	const n = 4_000_000
	var bigDone, smallDone sim.Time
	// Two DMA read flows on one engine: weight 4 vs 1 under the 5.6 GB/s
	// engine cap. The heavy flow should finish much earlier per byte.
	d.StartFlow(FlowSpec{Kind: FlowDMA, Bytes: n, Weight: 4, OnDone: func() { bigDone = eng.Now() }})
	d.StartFlow(FlowSpec{Kind: FlowDMA, Bytes: n, Weight: 1, OnDone: func() { smallDone = eng.Now() }})
	eng.Run()
	if bigDone >= smallDone {
		t.Fatalf("weighted flow not favored: big %v small %v", bigDone, smallDone)
	}
}

func TestFlowProgressAndCancel(t *testing.T) {
	eng, d := newDev()
	const n = 2_000_000
	f := d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: n, OnDone: func() { t.Error("OnDone after cancel") }})
	// Half the expected duration: progress ~0.5.
	half := sim.Duration(float64(n) / d.Model().CPUWriteRate * 1e9 / 2)
	eng.After(half, func() {
		p := f.Progress()
		if p < 0.45 || p > 0.55 {
			t.Errorf("progress = %v, want ~0.5", p)
		}
		if !f.Cancel() {
			t.Error("cancel failed")
		}
		if f.Cancel() {
			t.Error("double cancel succeeded")
		}
	})
	eng.Run()
	if !f.Done() {
		t.Fatal("flow not done after cancel")
	}
}

func TestZeroByteFlowCompletes(t *testing.T) {
	eng, d := newDev()
	done := false
	d.StartFlow(FlowSpec{Bytes: 0, OnDone: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestMaxminRespectsLimitsAndCap(t *testing.T) {
	limit := []float64{1, 10, 10}
	weight := []float64{1, 1, 2}
	flows := flowsOf(limit, weight)
	capLimits(flows, 7)
	// Flow 0 satisfied at 1; remaining 6 split 1:2 -> 2 and 4.
	want := []float64{1, 2, 4}
	for i, f := range flows {
		if math.Abs(f.limit-want[i]) > 1e-9 {
			t.Fatalf("flow %d limit = %v, want %v", i, f.limit, want[i])
		}
	}
	ref := make([]float64, 3)
	maxminRef(limit, weight, ref, make([]bool, 3), 7)
	for i, f := range flows {
		if math.Float64bits(f.limit) != math.Float64bits(ref[i]) {
			t.Fatalf("flow %d limit = %v, reference %v", i, f.limit, ref[i])
		}
	}
}

func TestMaxminUnderloaded(t *testing.T) {
	flows := flowsOf([]float64{1, 2}, []float64{1, 1})
	capLimits(flows, 100)
	if flows[0].limit != 1 || flows[1].limit != 2 || flows[0].sat || flows[1].sat {
		t.Fatalf("limits %v %v, saturated %v %v; want 1 2 by the shortcut", flows[0].limit, flows[1].limit, flows[0].sat, flows[1].sat)
	}
}

func TestTrackingAndCrashImage(t *testing.T) {
	_, d := newDev()
	d.WriteAt(0, []byte("base"))
	d.EnableTracking()
	d.WriteAt(100, []byte("aa")) // epoch 0, record 0
	d.Fence()
	d.WriteAt(200, []byte("bb")) // epoch 1, record 1
	d.WriteAt(300, []byte("cc")) // epoch 1, record 2
	d.Fence()

	if d.Epoch() != 2 || len(d.Records()) != 3 {
		t.Fatalf("epoch=%d records=%d", d.Epoch(), len(d.Records()))
	}

	// Crash with only records 0 and 2 applied (legal: all of epoch 0 +
	// subset of epoch 1).
	img := d.CrashImage([]int{0, 2})
	b := make([]byte, 4)
	img.ReadAt(b, 0)
	if string(b) != "base" {
		t.Fatalf("base lost: %q", b)
	}
	b2 := make([]byte, 2)
	img.ReadAt(b2, 100)
	if string(b2) != "aa" {
		t.Fatal("record 0 missing")
	}
	img.ReadAt(b2, 200)
	if b2[0] != 0 || b2[1] != 0 {
		t.Fatal("unapplied record present")
	}
	img.ReadAt(b2, 300)
	if string(b2) != "cc" {
		t.Fatal("record 2 missing")
	}
	// Original device unaffected.
	d.ReadAt(b2, 200)
	if string(b2) != "bb" {
		t.Fatal("live device lost data")
	}
}

func TestEpochBounds(t *testing.T) {
	_, d := newDev()
	d.EnableTracking()
	d.WriteAt(0, []byte{1}) // e0 r0
	d.WriteAt(1, []byte{1}) // e0 r1
	d.Fence()
	d.Fence()               // empty epoch 1
	d.WriteAt(2, []byte{1}) // e2 r2
	d.Fence()
	bounds := d.EpochBounds()
	want := []int{0, 2, 2, 3, 3}
	if len(bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

func TestRecordsReturnsDeepCopy(t *testing.T) {
	_, d := newDev()
	d.EnableTracking()
	d.WriteAt(0, []byte{1, 2, 3})
	d.Fence()
	d.WriteAt(64, []byte{4, 5})

	recs := d.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Mutate everything the caller can reach: the slice, the structs,
	// and the data payloads.
	recs[0].Data[0] = 99
	recs[1].Epoch = 42
	recs[1].Off = 4096
	recs = append(recs[:0], PersistRecord{})

	fresh := d.Records()
	if len(fresh) != 2 {
		t.Fatalf("device record stream corrupted: %d records", len(fresh))
	}
	if fresh[0].Data[0] != 1 {
		t.Fatalf("payload aliased: got %d, want 1", fresh[0].Data[0])
	}
	if fresh[1].Epoch != 1 || fresh[1].Off != 64 {
		t.Fatalf("record aliased: %+v", fresh[1])
	}
}

// six CPU and DMA flows start in one event, one of them is cancelled in
// that same event, another event at the same instant adds a seventh, and
// the first flow to finish starts two more from its OnDone. Every
// completion's virtual time and the engine's sequence counter at that
// moment are literals: arbitration may be reorganised, but the schedule
// it produces may not move by a nanosecond or an event.
func TestFlowBurstSchedule(t *testing.T) {
	eng, d := newDev()
	var log []string
	mark := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%d#%d", name, eng.Now(), eng.Sequence())) }
	}
	lateStarted := false
	first := func() {
		if lateStarted {
			return
		}
		lateStarted = true
		d.StartFlow(FlowSpec{Kind: FlowCPU, Bytes: 96 << 10, OnDone: mark("late-cpu-read")})
		d.StartFlow(FlowSpec{Write: true, Kind: FlowDMA, Group: 1, Bytes: 256 << 10, OnDone: mark("late-dma-write")})
	}
	burst := []struct {
		name string
		spec FlowSpec
	}{
		{"cpu-read", FlowSpec{Kind: FlowCPU, Bytes: 64 << 10}},
		{"cpu-write", FlowSpec{Write: true, Kind: FlowCPU, Bytes: 48 << 10}},
		{"cpu-write-remote", FlowSpec{Write: true, Kind: FlowCPU, Bytes: 80 << 10, Remote: true}},
		{"dma-read-g0", FlowSpec{Kind: FlowDMA, Group: 0, Bytes: 1 << 20, Weight: 4}},
		{"dma-read-g0-small", FlowSpec{Kind: FlowDMA, Group: 0, Bytes: 16 << 10}},
		{"dma-write-g1", FlowSpec{Write: true, Kind: FlowDMA, Group: 1, Bytes: 512 << 10, Weight: 2}},
	}
	var flows []*Flow
	eng.At(1000, func() {
		for _, b := range burst {
			b := b
			spec := b.spec
			spec.OnDone = func() { mark(b.name)(); first() }
			flows = append(flows, d.StartFlow(spec))
		}
		if !flows[4].Cancel() {
			t.Error("cancel of a live flow failed")
		}
	})
	eng.At(1000, func() {
		d.StartFlow(FlowSpec{Kind: FlowDMA, Group: 1, Bytes: 128 << 10, OnDone: mark("dma-read-g1")})
	})
	// A mid-flight cancel at a later instant, and a flow started on an
	// idle device long after the burst has drained.
	eng.At(20_000, func() { flows[5].Cancel() })
	eng.At(10_000_000, func() {
		d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: 4 << 10, OnDone: mark("idle-cpu-write")})
	})
	eng.Run()
	want := []string{
		"cpu-write@32458#14",
		"cpu-write-remote@66396#17",
		"cpu-read@68355#18",
		"dma-read-g1@69971#19",
		"late-dma-write@79376#20",
		"late-cpu-read@103321#21",
		"dma-read-g0@237899#21",
		"idle-cpu-write@10002049#22",
	}
	if len(log) != len(want) {
		t.Fatalf("completions = %q, want %q", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("completion %d = %s, want %s", i, log[i], want[i])
		}
	}
	if got := eng.Sequence(); got != 22 {
		t.Errorf("Sequence() = %d, want 22", got)
	}
}

// TestStartBesideDueCompletion: a flow starts at the instant another
// flow's completion is due, in an event ordered before the completion
// event. The completion must not fire before the instant settles: the
// new flow changed the arbitration, so the completion moves to the slot
// the start reserved, a nanosecond later. The times and sequence counts
// are literals from the placeholder schedule this replaced. A lone 64 KB
// CPU write started at 5 completes at 32774.
func TestStartBesideDueCompletion(t *testing.T) {
	eng, d := newDev()
	var log []string
	mark := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%d#%d", name, eng.Now(), eng.Sequence())) }
	}
	eng.At(5, func() {
		eng.At(32774, func() {
			d.StartFlow(FlowSpec{Kind: FlowDMA, Bytes: 32 << 10, OnDone: mark("dma-read")})
		})
		d.StartFlow(FlowSpec{Write: true, Kind: FlowCPU, Bytes: 64 << 10, OnDone: mark("cpu-write")})
	})
	eng.Run()
	if got, want := fmt.Sprint(log), "[cpu-write@32775#5 dma-read@40056#5]"; got != want {
		t.Fatalf("completions = %s, want %s", got, want)
	}
	if got := eng.Sequence(); got != 5 {
		t.Errorf("Sequence() = %d, want 5", got)
	}
}

// TestFlowRoundsNoAllocs pins the //easyio:hotpath contract on invalidate
// and recompute dynamically: once the flow pool, the arbitration groups,
// the scratch buffers and the engine's settle list reach high water, a
// burst of same-instant starts, a chained start from OnDone and every
// completion round allocate nothing.
func TestFlowRoundsNoAllocs(t *testing.T) {
	eng, d := newDev()
	chained := FlowSpec{Write: true, Kind: FlowDMA, Group: 1, Bytes: 32 << 10}
	chain := func() { d.StartFlow(chained) }
	specs := [...]FlowSpec{
		{Kind: FlowCPU, Bytes: 16 << 10, OnDone: chain},
		{Write: true, Kind: FlowCPU, Bytes: 24 << 10},
		{Kind: FlowDMA, Group: 0, Bytes: 256 << 10, Weight: 4},
		{Kind: FlowDMA, Group: 0, Bytes: 8 << 10},
		{Write: true, Kind: FlowDMA, Group: 1, Bytes: 128 << 10},
	}
	burst := func() {
		for _, s := range specs {
			d.StartFlow(s)
		}
	}
	cycle := func() {
		eng.After(1000, burst)
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("flow burst and completion rounds allocate %.1f times per cycle", a)
	}
	if d.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after cycle", d.ActiveFlows())
	}
}

// TestCancelledFlowReturnsToPool pins that both ways a flow ends recycle
// it: a flow cancelled part-way, the B-channel suspend path, goes back to
// the same free list completeDue fills. Beside one long-running flow, a
// start → advance → cancel cycle reuses the struct it just cancelled,
// allocates nothing once warm, and never grows the pool past the peak
// concurrent flow count.
func TestCancelledFlowReturnsToPool(t *testing.T) {
	eng, d := newDev()
	long := d.StartFlow(FlowSpec{Kind: FlowDMA, Group: 0, Bytes: 1 << 40})
	spec := FlowSpec{Write: true, Kind: FlowDMA, Group: 1, Bytes: 1 << 20,
		OnDone: func() { t.Error("OnDone after cancel") }}
	var last *Flow
	cycle := func() {
		f := d.StartFlow(spec)
		eng.RunFor(sim.Microsecond)
		if p := f.Progress(); p <= 0 || p >= 0.5 {
			t.Fatalf("progress before cancel = %v, want part-way", p)
		}
		if !f.Cancel() {
			t.Fatal("cancel of an active flow failed")
		}
		last = f
	}
	for i := 0; i < 10; i++ {
		cycle()
		if got := d.StartFlow(spec); got != last {
			t.Fatalf("cycle %d: StartFlow did not reuse the flow cancelled just before", i)
		} else {
			got.Cancel()
		}
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("start → advance → cancel allocates %.1f times per cycle", a)
	}
	if n := len(d.freeFlows); n > 2 {
		t.Fatalf("free list holds %d flows, want at most the peak concurrent count 2", n)
	}
	if d.ActiveFlows() != 1 || long.Done() {
		t.Fatalf("ActiveFlows = %d, long flow done = %v; want only the long flow running", d.ActiveFlows(), long.Done())
	}
}

// BenchmarkFlowStartCancel measures one start → advance → cancel cycle
// beside a long-running flow: the cost of the channel manager's
// suspend-and-restart path at the device, and its allocations per cycle.
func BenchmarkFlowStartCancel(b *testing.B) {
	eng, d := newDev()
	d.StartFlow(FlowSpec{Kind: FlowDMA, Group: 0, Bytes: 1 << 50})
	spec := FlowSpec{Write: true, Kind: FlowDMA, Group: 1, Bytes: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := d.StartFlow(spec)
		eng.RunFor(sim.Microsecond)
		f.Cancel()
	}
}
