package service

import (
	"runtime"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// TestRequestLifecycleNoAllocs is the dynamic backstop for the static
// //easyio:hotpath contract on Server.Inject and Server.execute (and for
// the dynamic-call summary holes the analyzer cannot traverse): in the
// steady state of a serving run — request pool, per-uthread op scratch,
// event freelist, pmem flow pool and all high-water buffers warmed — the
// full admit/execute/complete lifecycle must not allocate per request.
// The first half of the run is the warmup; the second half is measured
// with the GC fenced off and must stay well under one allocation per
// completed request (rare runtime-internal allocations, e.g. sudog
// growth, are tolerated; the pre-scratch path cost dozens per request).
//
// The qos case is the benchmark's serve-qos regime, where the channel
// manager keeps suspending the B channel and the DMA layer cancels and
// restarts a descriptor less than half done: it must be in the measured
// half too, so a cancelled flow that is not recycled shows up here.
func TestRequestLifecycleNoAllocs(t *testing.T) {
	const bulk = 1.5 * 1_500 // requests/s per bulk tenant, as serve-qos
	media, archive := bulkTenant(bulk), bulkTenant(bulk)
	media.Name, media.Mix.Name = "media", "ingest"
	media.Arrival = ArrivalSpec{Kind: ArrivalBurst, Rate: bulk, Period: 2 * sim.Millisecond, Duty: 0.25}
	archive.Name = "archive"
	archive.Arrival = ArrivalSpec{Kind: ArrivalDiurnal, Rate: bulk, Period: 10 * sim.Millisecond, Amplitude: 0.8}
	cases := []struct {
		name        string
		cfg         Config
		wantSuspend bool
	}{
		{name: "web+log", cfg: Config{
			Cores:   2,
			Seed:    7,
			Warmup:  1 * sim.Millisecond,
			Measure: 60 * sim.Millisecond,
			Drain:   5 * sim.Millisecond,
			Tenants: []TenantSpec{
				webTenant(100_000),
				{
					Name:    "log",
					Class:   core.ClassL,
					Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 20_000},
					Mix:     Mix{Name: "append", WriteSize: 8 << 10, WriteEvery: 1},
				},
			},
		}},
		{name: "qos", wantSuspend: true, cfg: Config{
			Cores:          4,
			WorkersPerCore: 4,
			Seed:           42,
			Policy:         PolicySpec{Kind: PolicyEWMA},
			Warmup:         1 * sim.Millisecond,
			Measure:        60 * sim.Millisecond,
			Drain:          5 * sim.Millisecond,
			Tenants:        []TenantSpec{webTenant(60_000), media, archive},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, eng := lifecycleServer(t, tc.cfg)
			mid := sim.Time(s.cfg.Warmup + s.cfg.Measure/2)
			eng.RunUntil(mid)

			runtime.GC()
			var before, after runtime.MemStats
			susp0 := s.mgr.SuspendCount()
			runtime.ReadMemStats(&before)
			eng.RunUntil(s.End())
			runtime.ReadMemStats(&after)
			suspends := s.mgr.SuspendCount() - susp0

			res := s.Finish()
			var completed int64
			for _, tr := range res.Tenants {
				completed += tr.Completed
			}
			if completed < 1000 {
				t.Fatalf("run too small to judge: %d completed requests", completed)
			}
			if tc.wantSuspend && suspends == 0 {
				t.Fatal("the channel manager never suspended the B channel in the measured half")
			}
			allocs := int64(after.Mallocs - before.Mallocs)
			perReq := float64(allocs) / float64(completed)
			t.Logf("%d allocations over >=%d requests (%.3f per request), %d suspends", allocs, completed, perReq, suspends)
			if perReq > 0.1 {
				t.Fatalf("steady-state request lifecycle allocates %.3f times per request (%d allocs, %d requests)",
					perReq, allocs, completed)
			}
		})
	}
}

// lifecycleServer builds a server for cfg on a small device with every
// page pre-touched and starts its arrivals and channel manager. The
// rotating block allocator sweeps the whole device before reusing
// blocks, so on a large device first-touch demand paging (a once-per-page
// cost, not lifecycle churn) would dominate the window. Pre-touching
// retires it up front.
func lifecycleServer(t *testing.T, cfg Config) (*Server, *sim.Engine) {
	t.Helper()
	const devSize = 64 << 20
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), devSize)
	opts := core.Options{Nova: nova.Options{NumInodes: 512, EphemeralData: true}}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cfg.Cores, Seed: cfg.Seed})
	t.Cleanup(eng.Shutdown)
	touch := make([]byte, 1<<20)
	for off := int64(0); off < devSize; off += int64(len(touch)) {
		dev.ReadAt(touch, off) // read-back keeps mounted state intact
		dev.WriteAt(off, touch)
	}
	dev.Fence()
	s, err := New(eng, rt, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StartArrivals()
	s.StartManager()
	return s, eng
}

// TestServedWindowAllocBytes bounds what a served window with bulk
// writes allocates after New, in bytes: sixteen workers issuing 1 MB
// writes once held a private 1 MB write buffer each, which the object
// counts of TestRequestLifecycleNoAllocs never saw. Writes now come from
// the Server's one shared zero source. The bound is checked on the
// ephemeral data plane the serving benchmarks use; on the functional
// plane each worker's nova arena stages a 1 MB CoW image once, which is
// the model's own high water, not garbage.
func TestServedWindowAllocBytes(t *testing.T) {
	if _, bytes := serveBulkWindow(t, true); bytes >= 1<<20 {
		t.Fatalf("served window allocated %d bytes after New, want under 1 MB", bytes)
	}
}

// TestSharedZeroSourceStaysZero is the safety net for sharing one write
// source: after a served window on the functional data plane, where
// writes really are copied out of it, the Server's source and the whole
// process-wide block behind it must still be all zero. A write source is
// read-only to every layer.
func TestSharedZeroSourceStaysZero(t *testing.T) {
	for _, ephemeral := range []bool{false, true} {
		s, _ := serveBulkWindow(t, ephemeral)
		if len(s.zero) == 0 || &s.zero[0] != &nova.Zeros(1)[0] {
			t.Fatalf("ephemeral=%v: the Server's write source is not nova's shared zero source", ephemeral)
		}
		for i, b := range nova.Zeros(nova.ZeroSourceSize) {
			if b != 0 {
				t.Fatalf("ephemeral=%v: shared zero source written: byte %d is %#x", ephemeral, i, b)
			}
		}
	}
}

// TestNewAllocBytes: serving set-up costs what it touches, not the size
// of its files. New for a three-tenant config of 4 KB reads beside two
// tenants of 1 MB writes on 4 MB files, with sixteen workers, allocates
// under 1 MB: the write source is the process-wide zero block, so New
// builds no file-sized buffer.
func TestNewAllocBytes(t *testing.T) {
	media, archive := bulkTenant(2_250), bulkTenant(2_250)
	media.Name, archive.Name = "media", "archive"
	cfg := Config{
		Cores:          4,
		WorkersPerCore: 4,
		Seed:           42,
		Policy:         PolicySpec{Kind: PolicyEWMA},
		Warmup:         sim.Millisecond,
		Measure:        sim.Millisecond,
		Drain:          sim.Millisecond,
		Tenants:        []TenantSpec{webTenant(60_000), media, archive},
	}
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 8<<30)
	opts := core.Options{Nova: nova.Options{NumInodes: 16384, EphemeralData: true}}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cfg.Cores, Seed: cfg.Seed})
	t.Cleanup(eng.Shutdown)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(eng, rt, fs, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.tenants[1].spec.FileSize; got != 4<<20 {
		t.Fatalf("bulk tenant files are %d bytes, want the 4 MB the bound is about", got)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes", bytes)
	if bytes >= 1<<20 {
		t.Fatalf("New allocated %d bytes, want under 1 MB", bytes)
	}
	s.StartManager()
	eng.RunUntil(s.End())
	s.Finish()
}

// serveBulkWindow runs a 4-core, 16-worker window of 4 KB reads beside
// 1 MB bulk writes and returns the finished server and the bytes
// allocated after New.
func serveBulkWindow(t *testing.T, ephemeral bool) (*Server, uint64) {
	t.Helper()
	cfg := Config{
		Cores:   4,
		Seed:    11,
		Warmup:  1 * sim.Millisecond,
		Measure: 10 * sim.Millisecond,
		Drain:   5 * sim.Millisecond,
		Tenants: []TenantSpec{webTenant(50_000), bulkTenant(2_000)},
	}
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 512<<20)
	opts := core.Options{Nova: nova.Options{NumInodes: 512, EphemeralData: ephemeral}}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cfg.Cores, Seed: cfg.Seed})
	t.Cleanup(eng.Shutdown)
	s, err := New(eng, rt, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.StartArrivals()
	s.StartManager()
	eng.RunUntil(s.End())
	runtime.ReadMemStats(&after)

	res := s.Finish()
	if bulk := res.Tenants[1]; bulk.Completed < 10 {
		t.Fatalf("run too small to judge: %d bulk writes completed", bulk.Completed)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("ephemeral=%v: served window allocated %d bytes after New", ephemeral, bytes)
	return s, bytes
}
