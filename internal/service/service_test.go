package service

import (
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
)

// newHarness builds a mounted EasyIO instance plus runtime, mirroring
// the core-package harness (bench.NewInstance is off-limits here: bench
// imports service for the serving driver).
func newHarness(t *testing.T, cores int, mopts core.ManagerOptions, seed uint64) (*sim.Engine, *caladan.Runtime, *core.FS) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.New(eng, perfmodel.System(), 2<<30)
	opts := core.Options{Nova: nova.Options{NumInodes: 4096, EphemeralData: true}, Manager: mopts}
	if err := core.Format(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := caladan.New(eng, caladan.Options{Cores: cores, Seed: seed})
	t.Cleanup(eng.Shutdown)
	return eng, rt, fs
}

// webTenant is a small latency-critical tenant: 4KB reads (the memcpy
// fast path) plus brief compute, with a generous-but-finite SLO.
func webTenant(rate float64) TenantSpec {
	return TenantSpec{
		Name:    "web",
		Class:   core.ClassL,
		SLO:     200 * sim.Microsecond,
		Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: rate},
		Mix:     Mix{Name: "point-read", ReadSize: 4 << 10, Compute: 1 * sim.Microsecond},
	}
}

// bulkTenant is a bandwidth-class tenant issuing 1MB writes that are
// split over the throttled B channel.
func bulkTenant(rate float64) TenantSpec {
	return TenantSpec{
		Name:    "bulk",
		Class:   core.ClassB,
		Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: rate},
		Mix:     Mix{Name: "backup", WriteSize: 1 << 20, WriteEvery: 1},
	}
}

func runOnce(t *testing.T, cfg Config, pol PolicySpec) *Result {
	t.Helper()
	cfg.Policy = pol
	eng, rt, fs := newHarness(t, cfg.Cores, core.ManagerOptions{}, cfg.Seed)
	res, err := Run(eng, rt, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestArrivalProcesses unit-checks the three arrival kinds directly:
// long-run mean rates within tolerance, and burst arrivals confined to
// the on window.
func TestArrivalProcesses(t *testing.T) {
	const window = 400 * sim.Millisecond
	for _, tc := range []struct {
		spec ArrivalSpec
	}{
		{ArrivalSpec{Kind: ArrivalPoisson, Rate: 50_000}},
		{ArrivalSpec{Kind: ArrivalBurst, Rate: 50_000, Period: 2 * sim.Millisecond, Duty: 0.25}},
		{ArrivalSpec{Kind: ArrivalDiurnal, Rate: 50_000, Period: 10 * sim.Millisecond, Amplitude: 0.8}},
	} {
		spec := tc.spec.withDefaults()
		if err := spec.validate(); err != nil {
			t.Fatal(err)
		}
		g := rng.New(42)
		var n int
		onLen := sim.Duration(float64(spec.Period) * spec.Duty)
		for now := sim.Time(0); ; {
			gap := spec.next(g, now)
			if gap < 1 {
				t.Fatalf("%s: non-advancing gap %d", spec.Kind, gap)
			}
			now += sim.Time(gap)
			if now >= sim.Time(window) {
				break
			}
			n++
			if spec.Kind == ArrivalBurst {
				if phase := sim.Duration(now % sim.Time(spec.Period)); phase >= onLen {
					t.Fatalf("burst arrival at %v lands in the off window (phase %v >= %v)", now, phase, onLen)
				}
			}
		}
		want := spec.Rate * window.Seconds()
		if lo, hi := 0.9*want, 1.1*want; float64(n) < lo || float64(n) > hi {
			t.Errorf("%s: %d arrivals in %v, want %.0f +- 10%%", spec.Kind, n, window, want)
		}
	}
}

// TestServeDeterminism pins the core contract: a seeded run is a pure
// function of its config. Same seed, same digest; different seed,
// different arrivals and digest.
func TestServeDeterminism(t *testing.T) {
	cfg := Config{
		Cores:   2,
		Tenants: []TenantSpec{webTenant(40_000), bulkTenant(500)},
		Warmup:  sim.Millisecond,
		Measure: 5 * sim.Millisecond,
		Seed:    7,
	}
	a := runOnce(t, cfg, PolicySpec{Kind: PolicyEWMA})
	b := runOnce(t, cfg, PolicySpec{Kind: PolicyEWMA})
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed, different digests: %x vs %x", a.Digest(), b.Digest())
	}
	cfg.Seed = 8
	c := runOnce(t, cfg, PolicySpec{Kind: PolicyEWMA})
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds produced identical digests")
	}
	if a.Tenants[0].Completed == 0 || a.Tenants[1].Completed == 0 {
		t.Fatalf("degenerate run: completions %d/%d", a.Tenants[0].Completed, a.Tenants[1].Completed)
	}
}

// TestServeAccounting checks the per-tenant counter algebra under an
// overloaded queue-cap policy: every measured arrival is either admitted
// or shed, and every admitted request either completes or is reported
// unfinished.
func TestServeAccounting(t *testing.T) {
	cfg := Config{
		Cores:   2,
		Tenants: []TenantSpec{webTenant(40_000), bulkTenant(4_000)},
		Warmup:  sim.Millisecond,
		Measure: 8 * sim.Millisecond,
		Seed:    3,
	}
	res := runOnce(t, cfg, PolicySpec{Kind: PolicyQueueCap, QueueCap: 16})
	shed := int64(0)
	for _, tr := range res.Tenants {
		if tr.Arrived != tr.Admitted+tr.Shed {
			t.Errorf("%s: arrived %d != admitted %d + shed %d", tr.Name, tr.Arrived, tr.Admitted, tr.Shed)
		}
		if tr.Admitted != tr.Completed+tr.Unfinished {
			t.Errorf("%s: admitted %d != completed %d + unfinished %d", tr.Name, tr.Admitted, tr.Completed, tr.Unfinished)
		}
		if tr.Lat.Count() != tr.Completed {
			t.Errorf("%s: histogram count %d != completed %d", tr.Name, tr.Lat.Count(), tr.Completed)
		}
		shed += tr.Shed
	}
	if shed == 0 {
		t.Error("overloaded queue-cap run shed nothing")
	}
}

// TestServePriorityOrder checks the priority policy sheds low-priority
// tenants harder than high-priority ones under the same overload.
func TestServePriorityOrder(t *testing.T) {
	lo := bulkTenant(5_000)
	lo.Name, lo.Priority = "bulk-lo", 0
	hi := bulkTenant(5_000)
	hi.Name, hi.Priority = "bulk-hi", 3
	cfg := Config{
		Cores:   2,
		Tenants: []TenantSpec{lo, hi},
		Warmup:  sim.Millisecond,
		Measure: 10 * sim.Millisecond,
		Seed:    5,
	}
	res := runOnce(t, cfg, PolicySpec{Kind: PolicyPriority, QueueCap: 4})
	rlo, rhi := &res.Tenants[0], &res.Tenants[1]
	if rlo.Shed == 0 {
		t.Fatal("low-priority tenant was never shed under overload")
	}
	if rlo.ShedRate() <= rhi.ShedRate() {
		t.Errorf("priority inversion: lo shed %.2f <= hi shed %.2f", rlo.ShedRate(), rhi.ShedRate())
	}
}

// TestServeOverloadSLO is the acceptance scenario: at >=1.5x capacity,
// the EWMA policy keeps the latency-critical tenant's p99 inside its SLO
// while the no-admission baseline's p99 collapses by >=10x.
func TestServeOverloadSLO(t *testing.T) {
	mkcfg := func() Config {
		return Config{
			Cores: 4,
			// The B tenant offers ~6 GB/s of writes against a ~3 GB/s
			// throttled B channel — 2x its capacity — so the open-loop
			// backlog grows without bound unless admission sheds it.
			Tenants: []TenantSpec{webTenant(100_000), bulkTenant(6_000)},
			Warmup:  2 * sim.Millisecond,
			Measure: 20 * sim.Millisecond,
			Seed:    11,
		}
	}
	base := runOnce(t, mkcfg(), PolicySpec{Kind: PolicyNone})
	ewma := runOnce(t, mkcfg(), PolicySpec{Kind: PolicyEWMA, HighWater: 0.3, LowWater: 0.1})

	slo := mkcfg().Tenants[0].SLO
	bweb, eweb := &base.Tenants[0], &ewma.Tenants[0]
	if eweb.Completed == 0 || bweb.Completed == 0 {
		t.Fatalf("degenerate run: web completions base=%d ewma=%d", bweb.Completed, eweb.Completed)
	}
	if p99 := eweb.Lat.P99(); p99 > slo {
		t.Errorf("EWMA policy: web p99 %v exceeds SLO %v", p99, slo)
	}
	if bp99, ep99 := bweb.Lat.P99(), eweb.Lat.P99(); bp99 < 10*ep99 {
		t.Errorf("baseline p99 %v did not collapse >=10x vs EWMA p99 %v", bp99, ep99)
	}
	if ewma.Tenants[1].Shed == 0 {
		t.Error("EWMA policy never shed the bulk tenant under overload")
	}
}

// TestEWMAShedMechanics pins the EWMA policy's state machine against a
// hand-built server: the shed flag trips above HighWater*SLO, halves the
// channel manager's B budget (never below the one-piece-per-epoch
// floor), and recovers below LowWater*SLO.
func TestEWMAShedMechanics(t *testing.T) {
	eng, rt, fs := newHarness(t, 1, core.ManagerOptions{}, 1)
	_ = rt
	mgr := fs.Manager()
	tn := &tenant{spec: TenantSpec{Name: "web", Class: core.ClassL, SLO: 100 * sim.Microsecond}}
	s := &Server{eng: eng, fs: fs, mgr: mgr, tenants: []*tenant{tn}}
	e := &ewmaShed{spec: PolicySpec{}.withDefaults()}

	limit0 := mgr.BLimit()
	// Latencies at 10% of SLO: well below HighWater (90%), no shedding.
	for i := 0; i < 50; i++ {
		e.complete(s, tn, 10*sim.Microsecond)
	}
	if e.shedding {
		t.Fatal("policy shed at 10% of SLO")
	}
	// Latencies at 2x SLO: EWMA crosses HighWater and the B budget halves.
	for i := 0; i < 50; i++ {
		e.complete(s, tn, 200*sim.Microsecond)
	}
	if !e.shedding {
		t.Fatal("policy did not shed at 2x SLO")
	}
	if mgr.BLimit() >= limit0 {
		t.Fatalf("shedding entry left BLimit at %.3g, want below %.3g", mgr.BLimit(), limit0)
	}
	lo := float64(core.BSplit) / core.Epoch.Seconds()
	if mgr.BLimit() < lo {
		t.Fatalf("BLimit %.3g cut below the one-piece-per-epoch floor %.3g", mgr.BLimit(), lo)
	}
	// Mid-band latencies (between LowWater and HighWater): still shedding
	// (hysteresis holds).
	tn.ewma = 0.7 * float64(tn.spec.SLO)
	e.complete(s, tn, sim.Duration(0.7*float64(tn.spec.SLO)))
	if !e.shedding {
		t.Fatal("hysteresis broken: recovered above LowWater")
	}
	// Fast latencies: EWMA decays below LowWater and shedding ends.
	for i := 0; i < 50; i++ {
		e.complete(s, tn, sim.Microsecond)
	}
	if e.shedding {
		t.Fatal("policy still shedding after EWMA decayed below LowWater")
	}
}

// TestServeMillionRequests drives >=1e6 requests through one serving run
// — the scale Recorder-based accounting could not sustain — and checks
// the histogram accounted for every completion. Skipped under -short and
// the race detector (it is a capacity test, not a logic test).
func TestServeMillionRequests(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("million-request capacity run: skipped under -short / -race")
	}
	cfg := Config{
		Cores:          8,
		WorkersPerCore: 4,
		Tenants: []TenantSpec{{
			Name:    "firehose",
			Class:   core.ClassL,
			SLO:     500 * sim.Microsecond,
			Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 2e6},
			Mix:     Mix{Name: "point-read", ReadSize: 4 << 10},
		}},
		Warmup:  sim.Millisecond,
		Measure: 550 * sim.Millisecond,
		Seed:    1,
	}
	res := runOnce(t, cfg, PolicySpec{Kind: PolicyNone})
	tr := &res.Tenants[0]
	if tr.Completed < 1_000_000 {
		t.Fatalf("completed %d requests, want >= 1e6", tr.Completed)
	}
	if tr.Lat.Count() != tr.Completed {
		t.Fatalf("histogram lost samples: %d != %d", tr.Lat.Count(), tr.Completed)
	}
	if tr.Lat.P999() <= 0 || tr.Lat.P999() < tr.Lat.P50() {
		t.Fatalf("implausible tail: p50 %v p999 %v", tr.Lat.P50(), tr.Lat.P999())
	}
}
