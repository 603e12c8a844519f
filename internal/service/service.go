// Package service is a deterministic multi-tenant serving layer on top
// of EasyIO: the front end the ROADMAP's "heavy traffic" north star
// implies, run entirely inside the simulation.
//
// Where the bench drivers replay closed-loop figure sweeps (a fixed set
// of uthreads looping as fast as the system allows), service generates
// *open-loop* traffic: each tenant owns a seeded arrival process
// (Poisson, burst, or diurnal — internal/rng streams, never the wall
// clock) that keeps injecting requests whether or not the system keeps
// up. That is the regime where async storage stacks live or die: above
// saturation a closed-loop driver just slows down, while an open-loop
// queue grows without bound and the tail latency of every tenant
// collapses together.
//
// The request lifecycle is: arrival event -> admission decision ->
// shared FIFO queue -> dispatch onto a fixed pool of caladan worker
// uthreads -> filesystem operations through internal/core (reads,
// compute, class-tagged writes per the tenant's mix) -> completion
// accounting (per-tenant stats.Hist, SLO attainment).
//
// Admission control is pluggable (admission.go): a no-op baseline, a
// shared queue cap, priority-scaled queue allowances, and an
// EWMA-latency policy that watches each latency-critical tenant's
// moving-average latency against its SLO and sheds bandwidth-class
// traffic — also driving the channel manager's QoS hooks (SetBLimit/
// ReadChanAdmission) so the DMA layer throttles bulk transfers in
// concert with the serving layer shedding them.
package service

import (
	"fmt"
	"hash/fnv"
	"math"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Mix is a tenant's per-request operation profile: read some bytes,
// compute, and (every WriteEvery-th request) write some bytes, all
// against the tenant's private file set at seeded aligned offsets.
type Mix struct {
	Name      string
	ReadSize  int          // bytes read per request (0 = no read)
	WriteSize int          // bytes written per writing request (0 = never)
	Compute   sim.Duration // CPU work between read and write
	// WriteEvery issues the write on every Nth request (1 = every
	// request; 0 defaults to 1 when WriteSize > 0).
	WriteEvery int
}

func (m Mix) withDefaults() Mix {
	if m.WriteEvery == 0 {
		m.WriteEvery = 1
	}
	return m
}

// TenantSpec describes one tenant of the serving layer.
type TenantSpec struct {
	Name string
	// Class routes the tenant's I/O: ClassL uses the latency channels
	// (with read admission control), ClassB is split and funneled
	// through the throttled bandwidth channel.
	Class core.Class
	// Priority orders shedding for the priority policy (higher = shed
	// later).
	Priority int
	// SLO is the tenant's latency objective. Latency-critical tenants
	// (ClassL with SLO > 0) are the EWMA policy's protected class.
	SLO sim.Duration
	// Arrival is the tenant's open-loop arrival process.
	Arrival ArrivalSpec
	// Mix is the per-request operation profile.
	Mix Mix
	// Files is the tenant's private file-set size. Default 4.
	Files int
	// FileSize is each file's prefilled size. Defaults to the smallest
	// power-of-two block multiple holding 4x the largest mix I/O, at
	// least 1 MB.
	FileSize int64
}

// Config parameterizes a serving run.
type Config struct {
	// Cores is the worker-core count (required, > 0).
	Cores int
	// WorkersPerCore sizes the uthread pool. Default 4.
	WorkersPerCore int
	// Tenants is the tenant set (required, non-empty).
	Tenants []TenantSpec
	// Policy is the admission policy. Default PolicyNone.
	Policy PolicySpec
	// Warmup precedes the measured window; arrivals run but are not
	// counted. Default 2ms.
	Warmup sim.Duration
	// Measure is the measured arrival window. Default 20ms.
	Measure sim.Duration
	// Drain extends the run past the last arrival so queued requests
	// can finish (unfinished ones are reported, not silently dropped).
	// Default min(Measure, 10ms).
	Drain sim.Duration
	// Seed drives every stochastic choice via forked rng streams.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.WorkersPerCore == 0 {
		c.WorkersPerCore = 4
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 20 * sim.Millisecond
	}
	if c.Drain == 0 {
		c.Drain = c.Measure
		if c.Drain > 10*sim.Millisecond {
			c.Drain = 10 * sim.Millisecond
		}
	}
	return c
}

// TenantResult is one tenant's measured-window accounting. Counters
// cover requests *arriving* inside the window; latencies are end-to-end
// (arrival to completion, queueing included) recorded in a mergeable
// log-bucketed histogram.
type TenantResult struct {
	Name       string
	Class      core.Class
	SLO        sim.Duration
	Arrived    int64
	Admitted   int64
	Shed       int64
	Completed  int64
	SLOMet     int64
	Unfinished int64 // admitted but not completed by drain end
	Lat        stats.Hist
	Span       sim.Duration
}

// ShedRate is the fraction of measured arrivals the policy rejected.
func (r *TenantResult) ShedRate() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Arrived)
}

// Throughput is completed requests per second of measured window.
func (r *TenantResult) Throughput() float64 {
	return stats.Throughput(int(r.Completed), r.Span)
}

// Goodput is SLO-meeting completions per second (all completions for
// tenants without an SLO).
func (r *TenantResult) Goodput() float64 {
	if r.SLO == 0 {
		return r.Throughput()
	}
	return stats.Throughput(int(r.SLOMet), r.Span)
}

// Result summarizes a serving run.
type Result struct {
	Policy   string
	Span     sim.Duration
	Tenants  []TenantResult
	Suspends int64   // channel-manager CHANCMD actions during the run
	BLimit   float64 // final B-app bandwidth budget (bytes/sec)
}

// Digest folds every observable of the run into one FNV-64 value for
// golden-corpus pinning and same-seed determinism checks.
func (r *Result) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "policy=%s;span=%d;susp=%d;blimit=%x;", r.Policy, r.Span, r.Suspends, math.Float64bits(r.BLimit))
	for i := range r.Tenants {
		tr := &r.Tenants[i]
		fmt.Fprintf(h, "%s:%d,%d,%d,%d,%d,%d;", tr.Name, tr.Arrived, tr.Admitted, tr.Shed, tr.Completed, tr.SLOMet, tr.Unfinished)
		tr.Lat.Buckets(func(upper sim.Duration, count int64) {
			fmt.Fprintf(h, "%d=%d,", upper, count)
		})
	}
	return h.Sum64()
}

// tenant is the runtime state behind a TenantSpec.
type tenant struct {
	idx   int // position in Config.Tenants (Inject addressing)
	spec  TenantSpec
	garr  *rng.Rand // arrival-process stream
	gmix  *rng.Rand // request-content stream (file, offsets)
	files []*nova.File
	seq   int64   // requests executed (WriteEvery phase)
	ewma  float64 // EWMA policy state (ns)
	res   TenantResult
}

// request is one queued unit of work. Requests are pooled on a free
// list, so steady-state serving allocates nothing per request.
type request struct {
	tn       *tenant
	arrive   sim.Time
	measured bool
	next     *request
}

// Server wires tenants, the admission policy, the worker pool and the
// EasyIO filesystem together. All state is mutated from simulation
// event context only (arrival events and worker uthreads), so no host
// synchronization is needed and runs are deterministic.
type Server struct {
	eng *sim.Engine
	rt  *caladan.Runtime
	fs  *core.FS
	mgr *core.Manager
	cfg Config
	pol policy

	tenants []*tenant

	// zero is the one all-zero write source behind every tenant's
	// prefill and every worker's writes, sized by the largest prefill
	// file or write: a window on nova's process-wide zero source, which
	// every layer below only reads.
	zero []byte

	qhead, qtail *request
	qlen         int
	freeReqs     *request
	// bulkOut counts admitted-but-incomplete requests of non-critical
	// tenants (warmup included): the EWMA policy bounds it so bulk work
	// can never occupy the whole worker pool.
	bulkOut int

	workers []*caladan.UThread
	idle    []int

	warmEnd, end sim.Time
	suspend0     int64

	// OnComplete, if set before the run starts, observes every request
	// completion in event context (a fleet node uses it to ack its
	// router). ti is the tenant's Config.Tenants index.
	OnComplete func(ti int, measured bool, lat sim.Duration)
}

// Run executes a serving run to completion (same contract as
// fxmark.Run: the caller owns engine/runtime/filesystem construction
// and shutdown). It returns once all arrivals have been generated and
// the drain window has elapsed.
func Run(eng *sim.Engine, rt *caladan.Runtime, fs *core.FS, cfg Config) (*Result, error) {
	s, err := New(eng, rt, fs, cfg)
	if err != nil {
		return nil, err
	}
	s.StartArrivals()
	s.StartManager()
	eng.RunUntil(s.End())
	return s.Finish(), nil
}

// New performs the untimed setup of a serving run — tenant state, file
// prefill, worker-pool spawn — but starts neither the arrival chains nor
// the channel manager, and does not drive the engine.
// The split exists for the serving fleet (bench's fleetCell): each node
// builds its Server on the one shared engine, the router Injects
// requests, and the fleet drives virtual time. Run composes the pieces
// for a single server.
func New(eng *sim.Engine, rt *caladan.Runtime, fs *core.FS, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("service: Config.Cores must be positive")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("service: no tenants configured")
	}
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, rt: rt, fs: fs, mgr: fs.Manager(), cfg: cfg, pol: pol}
	if testHookServer != nil {
		testHookServer(s)
	}

	// Normalize every spec first: the shared zero source is sized by the
	// largest prefill file or write before any tenant is built.
	specs := make([]TenantSpec, len(cfg.Tenants))
	maxRead, zeroLen := 0, int64(0)
	for ti := range cfg.Tenants {
		spec := cfg.Tenants[ti]
		spec.Mix = spec.Mix.withDefaults()
		spec.Arrival = spec.Arrival.withDefaults()
		if err := spec.Arrival.validate(); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", spec.Name, err)
		}
		if spec.Files == 0 {
			spec.Files = 4
		}
		if spec.FileSize == 0 {
			need := int64(4 * max(spec.Mix.ReadSize, spec.Mix.WriteSize))
			spec.FileSize = 1 << 20
			for spec.FileSize < need {
				spec.FileSize <<= 1
			}
		}
		maxRead = max(maxRead, spec.Mix.ReadSize)
		zeroLen = max(zeroLen, spec.FileSize, int64(spec.Mix.WriteSize))
		specs[ti] = spec
	}
	s.zero = nova.Zeros(int(zeroLen))

	root := rng.New(cfg.Seed ^ 0x5e4ce)
	for ti, spec := range specs {
		tg := root.Fork(uint64(ti))
		tn := &tenant{
			idx:  ti,
			spec: spec,
			garr: tg.Fork(1),
			gmix: tg.Fork(2),
			res:  TenantResult{Name: spec.Name, Class: spec.Class, SLO: spec.SLO, Span: cfg.Measure},
		}
		// Pre-built per-tenant file set (functional context: no DMA in
		// flight during setup), prefilled from the shared zero source.
		for fi := 0; fi < spec.Files; fi++ {
			f, err := fs.Create(nil, fmt.Sprintf("/svc-%s-%d", spec.Name, fi))
			if err != nil {
				return nil, fmt.Errorf("tenant %s: %w", spec.Name, err)
			}
			if _, err := fs.WriteAt(nil, f, 0, s.zero[:spec.FileSize]); err != nil {
				f.Close()
				return nil, fmt.Errorf("tenant %s prefill: %w", spec.Name, err)
			}
			tn.files = append(tn.files, f)
		}
		s.tenants = append(s.tenants, tn)
	}

	start := eng.Now()
	s.warmEnd = start + sim.Time(cfg.Warmup)
	s.end = s.warmEnd + sim.Time(cfg.Measure)

	// Worker pool: fixed uthreads, round-robin over cores, parking when
	// the queue is empty.
	nw := cfg.Cores * cfg.WorkersPerCore
	for w := 0; w < nw; w++ {
		w := w
		ut := rt.Spawn(w%cfg.Cores, fmt.Sprintf("svc-w%d", w), func(task *caladan.Task) {
			s.workerLoop(task, w, maxRead)
		})
		s.workers = append(s.workers, ut)
	}
	return s, nil
}

// StartArrivals schedules the tenants' open-loop arrival chains. A fleet
// router omits this on its nodes and feeds them via Inject instead.
func (s *Server) StartArrivals() {
	for _, tn := range s.tenants {
		tn := tn
		// One closure and one next-arrival cell per tenant for the whole
		// run: the chain reschedules itself, so per-arrival scheduling
		// allocates nothing.
		var at sim.Time
		var fire func()
		fire = func() {
			s.onArrival(tn)
			nxt := at + sim.Time(tn.spec.Arrival.next(tn.garr, at))
			if nxt < s.end {
				at = nxt
				s.eng.At(nxt, fire)
			}
		}
		start := s.warmEnd - sim.Time(s.cfg.Warmup)
		first := start + sim.Time(tn.spec.Arrival.next(tn.garr, start))
		if first < s.end {
			at = first
			s.eng.At(first, fire)
		}
	}
}

// StartManager starts the channel manager's epoch loop, which enforces
// the B budget for the whole run, and
// snapshots the suspend counter Finish reports against.
func (s *Server) StartManager() {
	s.mgr.Start()
	s.suspend0 = s.mgr.SuspendCount()
}

// End is the virtual time the run is over: last arrival plus drain.
func (s *Server) End() sim.Time { return s.end + sim.Time(s.cfg.Drain) }

// Finish stops the channel manager and assembles the result. Valid only
// once the engine has reached End.
func (s *Server) Finish() *Result {
	s.mgr.Stop()
	res := &Result{Policy: s.pol.name(), Span: s.cfg.Measure, Suspends: s.mgr.SuspendCount() - s.suspend0, BLimit: s.mgr.BLimit()}
	for _, tn := range s.tenants {
		tn.res.Unfinished = tn.res.Admitted - tn.res.Completed
		res.Tenants = append(res.Tenants, tn.res)
	}
	return res
}

// onArrival runs in event context at each arrival instant.
func (s *Server) onArrival(tn *tenant) {
	now := s.eng.Now()
	s.Inject(tn.idx, now, now >= s.warmEnd)
}

// Inject enqueues one request for tenant ti through the admission
// policy, exactly as a local arrival would — the entry point for the
// serving fleet's router (bench's fleetCell), whose messages reach the
// node one link delay later on the shared engine. arrive is the
// request's birth time (the router's send instant, so reported latency
// is end-to-end including the link); it must not be after the node's
// now. Returns whether the request was admitted. Event context only.
//
//easyio:hotpath (service request admission: one call per arrival)
func (s *Server) Inject(ti int, arrive sim.Time, measured bool) bool {
	tn := s.tenants[ti]
	if measured {
		tn.res.Arrived++
	}
	if !s.pol.admit(s, tn) {
		if measured {
			tn.res.Shed++
		}
		return false
	}
	if measured {
		tn.res.Admitted++
	}
	if !tn.critical() {
		s.bulkOut++
	}
	req := s.allocReq()
	req.tn, req.arrive, req.measured = tn, arrive, measured
	s.pushReq(req)
	s.wakeWorker()
	return true
}

// workerLoop pulls requests until the simulation ends. The read buffer
// is preallocated per worker (reads write into it); writes come from the
// shared zero source. The steady-state request path performs no heap
// allocation.
func (s *Server) workerLoop(task *caladan.Task, id, maxRead int) {
	rbuf := make([]byte, maxRead)
	for {
		req := s.popReq()
		if req == nil {
			s.idle = append(s.idle, id)
			task.Park()
			continue
		}
		s.execute(task, req, rbuf)
		s.freeReq(req)
	}
}

// execute performs one request's filesystem work and accounting.
//
//easyio:hotpath (service request execution: the per-request FS + accounting path)
func (s *Server) execute(task *caladan.Task, req *request, rbuf []byte) {
	tn := req.tn
	mix := tn.spec.Mix
	f := tn.files[tn.gmix.Intn(len(tn.files))]
	tn.seq++
	if mix.ReadSize > 0 {
		off := alignedOff(tn.gmix, tn.spec.FileSize, mix.ReadSize)
		if _, err := s.fs.ReadAtClass(task, f, off, rbuf[:mix.ReadSize], tn.spec.Class); err != nil {
			panic("service: read: " + err.Error())
		}
	}
	task.Compute(mix.Compute)
	if mix.WriteSize > 0 && tn.seq%int64(mix.WriteEvery) == 0 {
		off := alignedOff(tn.gmix, tn.spec.FileSize, mix.WriteSize)
		if _, err := s.fs.WriteAtClass(task, f, off, s.zero[:mix.WriteSize], tn.spec.Class); err != nil {
			panic("service: write: " + err.Error())
		}
	}
	lat := sim.Duration(task.Now() - req.arrive)
	if !tn.critical() {
		s.bulkOut--
	}
	if req.measured {
		tn.res.Completed++
		tn.res.Lat.Add(lat)
		if tn.spec.SLO > 0 && lat <= tn.spec.SLO {
			tn.res.SLOMet++
		}
	}
	s.pol.complete(s, tn, lat)
	if s.OnComplete != nil {
		s.OnComplete(tn.idx, req.measured, lat)
	}
}

// alignedOff picks a block-aligned offset keeping [off, off+ioSize)
// inside the prefilled file.
func alignedOff(g *rng.Rand, fileSize int64, ioSize int) int64 {
	span := fileSize - int64(ioSize)
	if span <= 0 {
		return 0
	}
	blocks := span/nova.BlockSize + 1
	return g.Int63n(blocks) * nova.BlockSize
}

// Request queue: intrusive FIFO plus free list.

func (s *Server) allocReq() *request {
	if r := s.freeReqs; r != nil {
		s.freeReqs = r.next
		r.next = nil
		return r
	}
	return newRequest()
}

// newRequest grows the request population when the free list runs dry —
// bounded by the peak in-flight request count, after which allocReq
// recycles forever.
//
//easyio:coldpath (request free-list refill; population reaches high water and stays there)
func newRequest() *request {
	return &request{}
}

func (s *Server) freeReq(r *request) {
	r.tn = nil
	r.next = s.freeReqs
	s.freeReqs = r
}

func (s *Server) pushReq(r *request) {
	if s.qtail == nil {
		s.qhead, s.qtail = r, r
	} else {
		s.qtail.next = r
		s.qtail = r
	}
	s.qlen++
}

func (s *Server) popReq() *request {
	r := s.qhead
	if r == nil {
		return nil
	}
	s.qhead = r.next
	if s.qhead == nil {
		s.qtail = nil
	}
	r.next = nil
	s.qlen--
	return r
}

// wakeWorker unparks the most recently idled worker (LIFO keeps the
// working set warm and the order deterministic).
func (s *Server) wakeWorker() {
	n := len(s.idle)
	if n == 0 {
		return
	}
	id := s.idle[n-1]
	s.idle = s.idle[:n-1]
	s.workers[id].Wake()
}

// QueueLen reports the current shared-queue depth (policy input).
func (s *Server) QueueLen() int { return s.qlen }

// testHookServer, when set, observes the Server before the run starts
// (test-only probe point).
var testHookServer func(*Server)
