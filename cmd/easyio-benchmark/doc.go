// Command easyio-benchmark is the repository's benchmark: four named
// workloads, end-to-end metrics on two clocks, and a per-layer host-cost
// ledger timed from outside the program. It drives every layer only
// through public functions and exits non-zero when an output check fails.
//
// Usage, from the root of a checkout (run.sh builds the binary into
// .bench_build and runs it):
//
//	sh cmd/easyio-benchmark/run.sh -workload serve-qos -seed 42
//	sh cmd/easyio-benchmark/run.sh -workload all -seed 42         # each workload in its own child process
//	sh cmd/easyio-benchmark/run.sh -workload fxmark-sweep -trace 1 \
//		-trace-out fx.json -cpuprofile fx.prof                    # per-layer numbers, Perfetto trace, pprof
//	cd cmd/easyio-benchmark && go run . -workload vet-cold       # the same, without run.sh
//
// The benchmark is a Go module of its own, so the root module's
// `go test ./...` does not reach it; its tests run with
// `cd cmd/easyio-benchmark && go test -race -tags easyio_invariants ./...`
// and use shortened windows.
//
// # Workloads
//
// Each workload is one process using at most two threads of load. A run
// repeats the workload's unit of work -seconds divided by the unit's
// nominal host cost times (at least three), always on the same seed, so
// the results repeat exactly and the repetitions are checked against each
// other. Set-up is reported as the median over the repetitions and the
// measured phase as the fastest repetition: interference from other
// tenants of a shared host only slows a repetition, and across ten seeds
// the minimum's quartile spread was at most the median's (a third of it
// on serve-qos).
//
//   - serve-qos: open loop, 1 s of virtual time per repetition. The
//     3-tenant serving cell at 1.5x bulk load under the EWMA policy on 4
//     cores: web sends 60k/s Poisson 4 KB reads (ClassL, SLO 200 µs),
//     media bursts and archive follows a diurnal curve, both 1 MB writes
//     (ClassB). This is the paper's QoS regime: admission,
//     channel-manager throttling, B-channel DMA and pmem bandwidth
//     arbitration all do work.
//   - serve-firehose: open loop, 200 ms of virtual time (~400k requests)
//     per repetition. One ClassL tenant sends 2M/s Poisson 4 KB reads to
//     8 cores x 4 workers, SLO 500 µs. The reads take the memcpy path and
//     nothing is shed, so DMA, admission and set-up drop out and the
//     per-request sim and caladan cost dominates: the workload for the
//     proc-handoff lever.
//   - fxmark-sweep: closed loop, bench.Fig9 with bench.SimWorkers=2 at a
//     5 ms window: 184 cells over 4 systems, DWAL and DRBL, 16 and 64 KB.
//     184 NewInstance set-ups and the cluster runner dominate, which the
//     serving workloads bypass: the workload for copy-on-write images,
//     slab pages and releasing domain state. The figure's 20 ms window
//     would raise one sweep's peak RSS from about 1.5 GB to 2.8 GB.
//     Figure 9 costs the same at every seeded offset, so its results do
//     not move with the seed.
//   - vet-cold: batch, one cold easyio-vet run per repetition:
//     analysis.ParseModule (the set-up) and then RunAnalyzersOpts with
//     Workers 2 and TypeCheck as EnsureTypes, no cache. It is the only
//     workload that runs the analysis layer, and it runs no simulation:
//     the workload for the one-walker simplification.
//
// The serving harness owns its load generator. It builds the server with
// service.New, draws each tenant's arrival times from its own internal/rng
// streams through ArrivalSpec.Next, injects each request at its due time
// with Server.Inject, times it from that due time through
// Server.OnComplete into a histogram with 1024 sub-buckets per power of
// two (0.1%), and cross-checks its tallies against Finish: arrived =
// admitted + shed and admitted = completed + unfinished for every tenant.
// Requests the admission policy refuses count in fail_ratio and
// service.shed; the result line's failed counts only requests that did not
// finish.
//
// # Metrics and clocks
//
// Every printed line names its clock: "virtual" is the modelled EasyIO
// system, deterministic per seed, so two commits compare exactly; "host"
// is the simulator or tool itself and carries host noise; "count" is a
// deterministic tally.
//
// End-to-end metrics, the result line of -trace 0, all host:
//
//	setup_s         median host seconds before the measured phase: NewInstance
//	                plus service.New (serve), one instance of each system
//	                (fxmark-sweep), ParseModule (vet-cold)
//	host_s          host seconds of the measured phase, fastest repetition
//	host_us_per_op  host_s in µs per completed operation: request, fxmark
//	                op, or analyzed package
//	peak_rss_mb     the process's VmHWM after the first repetition
//
// Bounds: 0.25 of the parent's median for the three times, 0.2 for peak
// RSS. Across ten seeds the times' quartile spread was 2-5% while the
// shared host was quiet and up to 16% while its neighbours were busy; peak
// RSS stayed within 6%.
//
// Results, printed on every run and checked for repetition: lat_p50_us,
// lat_p99_us, lat_p999_us and goodput_kops (virtual; the latency-critical
// tenant, or EasyIO's DWAL-16K p99 at 18 cores on fxmark-sweep),
// write_gbps and read_gbps (virtual; EasyIO's peak 16 KB bandwidth on
// fxmark-sweep), lat_samples, cells, packages, findings, type_errors and
// fail_ratio (counts). They stay out of the result line because every
// end-to-end metric there must be nonzero on every workload, and vet-cold
// has no virtual clock.
//
// Per-layer metrics, the result line of -trace 1, which adds a traced
// rerun of the workload and the ledger:
//
//   - Counters of the first untraced repetition: sim.events,
//     caladan.switches, caladan.busy_frac (virtual), core.suspends,
//     core.blimit_gbps (virtual), dma.l_gb, dma.b_gb, dma.descs,
//     service.shed, service.unfinished. Gauges sampled every 50 µs of the
//     traced repetition's measured window by a read-only event:
//     service.queue_mean, service.queue_max, caladan.runq_mean,
//     dma.inflight_mean, dma.b_suspended_frac, pmem.flows_mean (virtual).
//     They read zero where the benchmark cannot see the layer:
//     fxmark-sweep's engines live inside bench.Fig9 and vet-cold simulates
//     nothing.
//   - Host: go.mallocs_per_op and go.gc_cycles over the untraced
//     repetitions, trace.overhead (traced host_s over untraced host_s).
//   - The ledger, host time per call into one public function per layer,
//     the same on every workload: sim.probe_event_ns and
//     sim.probe_proc_switch_ns (bench.MeasureKernelPerf),
//     caladan.probe_yield_ns, dma.probe_submit_ns (a 16 KB descriptor,
//     submit to completion), pmem.probe_flow_ns (StartFlow to done among 8
//     flows), nova.probe_read4k_ns, nova.probe_write16k_ns,
//     core.probe_read4k_ns, core.probe_write16k_ns,
//     bench.probe_new_instance_ms.<system>, fxmark.probe_start_ms and
//     service.probe_new_ms.
//   - Vet phases of one cold run, timed around public calls:
//     vet.parse_ms, vet.typecheck_ms, vet.build_module_ms,
//     vet.analyzers_ms (the whole RunAnalyzersOpts call, which builds the
//     module view again inside) and vet.partition_ms, and
//     vet.analyzer.<name>_ms for every timed analyzer (RunResult.AnalyzerMS,
//     summed over workers).
//
// Each per-layer metric should move an end-to-end one: sim and caladan
// probes, sim.events and caladan.switches move host_us_per_op on
// serve-firehose; the new-instance and fxmark probes move host_s and
// peak_rss_mb on fxmark-sweep; the vet phases move host_s on vet-cold;
// the serving counters and gauges explain serve-qos's virtual latency and
// bandwidth.
//
// -trace-out writes the traced run as Chrome trace-event JSON that
// Perfetto opens: host-clock spans for every phase, probe and vet step,
// virtual-clock spans for 1 in 64 requests on a track per tenant, and
// counter tracks for the gauges. Spans stay in memory and are written
// when the run ends. -cpuprofile profiles the traced rerun. Together they
// show where a run's wall-clock went.
//
// # Comparing two commits
//
// Build both commits' binaries, then run at least ten pairs per workload
// with the same -seconds, alternating which side runs first. Report each
// side's median and quartiles per end-to-end metric, and claim a change
// only when it wins nine pairs in ten and the medians differ by more than
// the parent's own quartile spread. The virtual results must match
// exactly unless the change says why they moved. Repeat the claim on the
// hold-out seed 7; the baseline seed is 42. baseline.json records the
// baseline's medians and quartiles from two sets of runs on a 2-CPU
// x86-64 host, with its nproc, GOMAXPROCS and Go version.
//
// Spans inside the program, at each layer boundary of a request, wait for
// in-program tracing: this benchmark records spans only around its own
// calls into the layers.
package main
