package main

import (
	"fmt"
	"time"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// gaugeEvery is the traced repetition's gauge sampling period.
const gaugeEvery = 50 * sim.Microsecond

// serveSpec is an open-loop serving workload. The benchmark owns the load
// generator: it builds the server with service.New, draws every tenant's
// arrival times from its own internal/rng streams through
// ArrivalSpec.Next, injects each request at its due time, and times it
// from that due time through Server.OnComplete.
type serveSpec struct {
	cores, workersPerCore int
	tenants               []service.TenantSpec // tenant 0 is the latency-critical one
	policy                service.PolicySpec
	warmup, measure       sim.Duration
}

// qosSpec is the paper's QoS regime, the 3-tenant serving cell at 1.5x
// bulk load under the EWMA admission policy on 4 cores: latency reads
// beside bulk writes, with admission, channel-manager throttling, B-channel
// DMA and pmem bandwidth arbitration all doing work.
func qosSpec(short bool) serveSpec {
	const bulk = 1.5 * 1_500 // requests/s per bulk tenant
	sp := serveSpec{
		cores: 4, workersPerCore: 4,
		tenants: []service.TenantSpec{
			{Name: "web", Class: core.ClassL, Priority: 2, SLO: 200 * sim.Microsecond,
				Arrival: service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 60_000},
				Mix:     service.Mix{Name: "point-read", ReadSize: 4 << 10, Compute: sim.Microsecond}},
			{Name: "media", Class: core.ClassB, Priority: 1,
				Arrival: service.ArrivalSpec{Kind: service.ArrivalBurst, Rate: bulk, Period: 2 * sim.Millisecond, Duty: 0.25},
				Mix:     service.Mix{Name: "ingest", WriteSize: 1 << 20, WriteEvery: 1}},
			{Name: "archive", Class: core.ClassB, Priority: 0,
				Arrival: service.ArrivalSpec{Kind: service.ArrivalDiurnal, Rate: bulk, Period: 10 * sim.Millisecond, Amplitude: 0.8},
				Mix:     service.Mix{Name: "backup", WriteSize: 1 << 20, WriteEvery: 1}},
		},
		policy: service.PolicySpec{Kind: service.PolicyEWMA},
		warmup: 2 * sim.Millisecond, measure: sim.Second,
	}
	if short {
		sp.measure = 20 * sim.Millisecond
	}
	return sp
}

// firehoseSpec is one latency-class tenant sending 2M 4 KB reads/s to
// 8 cores x 4 workers: every read takes the memcpy path and nothing is
// shed, so DMA, admission and set-up drop out and the per-request sim and
// caladan cost dominates host time.
func firehoseSpec(short bool) serveSpec {
	sp := serveSpec{
		cores: 8, workersPerCore: 4,
		tenants: []service.TenantSpec{
			{Name: "firehose", Class: core.ClassL, SLO: 500 * sim.Microsecond,
				Arrival: service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 2e6},
				Mix:     service.Mix{Name: "point-read", ReadSize: 4 << 10}},
		},
		warmup: sim.Millisecond, measure: 200 * sim.Millisecond,
	}
	if short {
		sp.measure = 5 * sim.Millisecond
	}
	return sp
}

// tally is the benchmark's own per-tenant accounting of the measured
// window, cross-checked against the server's TenantResult.
type tally struct {
	arrived, admitted, shed, completed, sloMet int64
	lat                                        hist
}

func (sp serveSpec) rep(seed uint64, tr *tracer) (*rep, error) {
	t0 := time.Now()
	inst, err := bench.NewInstance(bench.SysEasyIO, sp.cores, bench.InstanceOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	srv, err := service.New(inst.Eng, inst.RT, inst.CoreFS, service.Config{
		Cores: sp.cores, WorkersPerCore: sp.workersPerCore, Tenants: sp.tenants,
		Policy: sp.policy, Warmup: sp.warmup, Measure: sp.measure, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	r := &rep{setup: time.Since(t0).Seconds()}
	tr.span("set-up", t0)

	eng := inst.Eng
	tallies := make([]tally, len(sp.tenants))
	names := make([]string, len(sp.tenants))
	for i, tn := range sp.tenants {
		names[i] = tn.Name
	}
	tr.tenants(names)
	srv.OnComplete = func(ti int, measured bool, lat sim.Duration) {
		if !measured {
			return
		}
		t := &tallies[ti]
		t.completed++
		t.lat.add(int64(lat))
		if slo := sp.tenants[ti].SLO; slo > 0 && lat <= slo {
			t.sloMet++
		}
		tr.request(ti, eng.Now(), lat)
	}
	srv.StartManager()

	// The server's window starts at the engine's current time, as here.
	start := eng.Now()
	warmEnd := start + sim.Time(sp.warmup)
	end := warmEnd + sim.Time(sp.measure)
	gen := rng.New(seed ^ 0xbe4c4)
	for ti := range sp.tenants {
		t := &tallies[ti]
		spec, g := sp.tenants[ti].Arrival, gen.Fork(uint64(ti))
		var due sim.Time
		var arrive func()
		arrive = func() {
			measured := due >= warmEnd
			admitted := srv.Inject(ti, due, measured)
			if measured {
				t.arrived++
				if admitted {
					t.admitted++
				} else {
					t.shed++
				}
			}
			if due += sim.Time(spec.Next(g, due)); due < end {
				eng.At(due, arrive)
			}
		}
		if due = start + sim.Time(spec.Next(g, start)); due < end {
			eng.At(due, arrive)
		}
	}
	var gauges gaugeSums
	if tr != nil {
		gauges.start(inst, srv, tr, warmEnd, end)
	}

	ev0 := eng.Sequence()
	t1 := time.Now()
	eng.RunUntil(srv.End())
	r.host = time.Since(t1).Seconds()
	tr.span("measured phase", t1)
	res := srv.Finish()

	mgr := inst.CoreFS.Manager()
	st := &r.stats
	st.events = float64(eng.Sequence() - ev0)
	for i := 0; i < inst.RT.NumCores(); i++ {
		st.switches += float64(inst.RT.Core(i).Switches())
	}
	st.busyFrac = inst.RT.BusyFraction()
	st.suspends = float64(res.Suspends)
	st.bLimitGBps = res.BLimit / 1e9
	for _, c := range mgr.LChannels() {
		st.lGB += float64(c.Chan.BytesCompleted()) / 1e9
		st.descs += float64(c.Chan.DurableSN())
	}
	st.bGB = float64(mgr.BChannel().Chan.BytesCompleted()) / 1e9
	st.descs += float64(mgr.BChannel().Chan.DurableSN())
	gauges.finish(st)

	var writtenB float64
	for i := range tallies {
		t, tn, want := &tallies[i], sp.tenants[i], &res.Tenants[i]
		r.attempted += t.arrived
		r.completed += t.completed
		r.failed += want.Unfinished
		st.shed += float64(t.shed)
		st.unfinished += float64(want.Unfinished)
		writtenB += float64(t.completed) * float64(tn.Mix.WriteSize)
		got := [5]int64{t.arrived, t.admitted, t.shed, t.completed, t.sloMet}
		if got != [5]int64{want.Arrived, want.Admitted, want.Shed, want.Completed, want.SLOMet} {
			r.problems = append(r.problems, fmt.Sprintf("tenant %s: benchmark tallies arrived/admitted/shed/completed/slo-met %v, server %d/%d/%d/%d/%d",
				tn.Name, got, want.Arrived, want.Admitted, want.Shed, want.Completed, want.SLOMet))
		}
		if t.arrived != t.admitted+t.shed || t.admitted != t.completed+want.Unfinished || t.lat.n != t.completed {
			r.problems = append(r.problems, fmt.Sprintf("tenant %s: accounting identities broken (arrived %d admitted %d shed %d completed %d unfinished %d latencies %d)",
				tn.Name, t.arrived, t.admitted, t.shed, t.completed, want.Unfinished, t.lat.n))
		}
	}

	lc, secs := &tallies[0], sp.measure.Seconds()
	r.results = []metric{
		{"lat_p50_us", float64(lc.lat.quantile(0.5)) / 1e3, "us", virtual},
		{"lat_p99_us", float64(lc.lat.quantile(0.99)) / 1e3, "us", virtual},
		{"lat_p999_us", float64(lc.lat.quantile(0.999)) / 1e3, "us", virtual},
		{"lat_samples", float64(lc.lat.n), "count", count},
		{"goodput_kops", float64(lc.sloMet) / secs / 1e3, "kops/s", virtual},
	}
	if writtenB > 0 {
		r.results = append(r.results, metric{"write_gbps", writtenB / secs / 1e9, "GB/s", virtual})
	}
	r.results = append(r.results, metric{"fail_ratio", (st.shed + st.unfinished) / float64(max(r.attempted, 1)), "ratio", count})
	return r, nil
}

// gaugeSums samples the serving layers every gaugeEvery of the measured
// window from an event the benchmark owns. The event only reads state, so
// the traced repetition's results match the untraced ones exactly.
type gaugeSums struct {
	n, queue, queueMax, runq, inflight, bSuspended, flows float64
}

func (g *gaugeSums) start(inst *bench.Instance, srv *service.Server, tr *tracer, from, until sim.Time) {
	eng, mgr := inst.Eng, inst.CoreFS.Manager()
	var sample func()
	sample = func() {
		now := eng.Now()
		q := float64(srv.QueueLen())
		var runq, inflight, susp float64
		for i := 0; i < inst.RT.NumCores(); i++ {
			runq += float64(inst.RT.Core(i).QueueLen())
		}
		for _, c := range mgr.LChannels() {
			inflight += float64(c.Chan.QueueDepth())
		}
		b := mgr.BChannel().Chan
		inflight += float64(b.QueueDepth())
		if b.Suspended() {
			susp = 1
		}
		flows := float64(inst.Dev.ActiveFlows())
		g.n++
		g.queue += q
		g.queueMax = max(g.queueMax, q)
		g.runq += runq
		g.inflight += inflight
		g.bSuspended += susp
		g.flows += flows
		tr.counter("service.queue", now, q)
		tr.counter("caladan.runq", now, runq)
		tr.counter("dma.inflight", now, inflight)
		tr.counter("dma.b_suspended", now, susp)
		tr.counter("pmem.flows", now, flows)
		if now+sim.Time(gaugeEvery) < until {
			eng.After(gaugeEvery, sample)
		}
	}
	eng.At(from, sample)
}

func (g *gaugeSums) finish(st *layerStats) {
	if g.n == 0 {
		return
	}
	st.queueMean, st.queueMax = g.queue/g.n, g.queueMax
	st.runqMean, st.inflightMean = g.runq/g.n, g.inflight/g.n
	st.bSuspendedFrac, st.flowsMean = g.bSuspended/g.n, g.flows/g.n
}
