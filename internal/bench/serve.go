package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// The serving experiment drives the service layer (multi-tenant open-loop
// front end) across an offered-load sweep, once per admission policy, and
// reports the latency-vs-load curves (p50/p99/p999), shed rates and
// goodput the paper's QoS story implies: below saturation every policy
// looks alike; past it, the no-admission baseline's tail collapses while
// the feedback policies shed bulk traffic and hold the latency-critical
// tenant inside its SLO.

// serveCores is the worker-core count of every serving cell.
const serveCores = 4

// serveSLO is the latency-critical tenant's objective.
const serveSLO = 200 * sim.Microsecond

// servePolicies is the sweep's policy axis.
func servePolicies() []service.PolicySpec {
	return []service.PolicySpec{
		{Kind: service.PolicyNone},
		{Kind: service.PolicyQueueCap, QueueCap: 32},
		{Kind: service.PolicyEWMA},
		{Kind: service.PolicyPriority, QueueCap: 8},
	}
}

// serveLoads is the offered-load axis, as multiples of the bulk tenants'
// sustainable bandwidth (the throttled B channel's effective rate).
var serveLoads = []float64{0.5, 1.0, 1.5, 2.0}

// serveTenants is the three-tenant workload: a latency-critical Poisson
// point-read tenant, a bursty bulk-write tenant, and a diurnal archive
// tenant, with the two bulk tenants' offered bandwidth scaled by mult.
func serveTenants(mult float64) []service.TenantSpec {
	return []service.TenantSpec{
		{
			Name:     "web",
			Class:    core.ClassL,
			Priority: 2,
			SLO:      serveSLO,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 60_000},
			Mix:      service.Mix{Name: "point-read", ReadSize: 4 << 10, Compute: sim.Microsecond},
		},
		{
			Name:     "media",
			Class:    core.ClassB,
			Priority: 1,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalBurst, Rate: 1_500 * mult, Period: 2 * sim.Millisecond, Duty: 0.25},
			Mix:      service.Mix{Name: "ingest", WriteSize: 1 << 20, WriteEvery: 1},
		},
		{
			Name:     "archive",
			Class:    core.ClassB,
			Priority: 0,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalDiurnal, Rate: 1_500 * mult, Period: 10 * sim.Millisecond, Amplitude: 0.8},
			Mix:      service.Mix{Name: "backup", WriteSize: 1 << 20, WriteEvery: 1},
		},
	}
}

// ServeTenantRow is one tenant's metrics in one sweep cell.
type ServeTenantRow struct {
	Name       string  `json:"name"`
	Class      string  `json:"class"`
	Arrival    string  `json:"arrival"`
	SLONS      int64   `json:"slo_ns,omitempty"`
	Arrived    int64   `json:"arrived"`
	Shed       int64   `json:"shed"`
	Completed  int64   `json:"completed"`
	Unfinished int64   `json:"unfinished"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	P999NS     int64   `json:"p999_ns"`
	MeanNS     int64   `json:"mean_ns"`
	ShedRate   float64 `json:"shed_rate"`
	Goodput    float64 `json:"goodput_rps"`
	Throughput float64 `json:"throughput_rps"`
}

// ServeCell is one (policy, load) point of the sweep.
type ServeCell struct {
	Policy   string           `json:"policy"`
	Load     float64          `json:"load"`
	Tenants  []ServeTenantRow `json:"tenants"`
	Suspends int64            `json:"chancmd_actions"`
	BLimit   float64          `json:"blimit_final"`
	Digest   string           `json:"digest"`
}

// ServeMillionCell records the full-mode capacity run: one tenant pushed
// through >= 1e6 requests in a single seeded run.
type ServeMillionCell struct {
	Completed int64 `json:"completed"`
	P50NS     int64 `json:"p50_ns"`
	P99NS     int64 `json:"p99_ns"`
	P999NS    int64 `json:"p999_ns"`
	P9999NS   int64 `json:"p9999_ns"`
	SpanNS    int64 `json:"span_ns"`
}

// ServeReport is the committed BENCH_serve.json payload. Every field is
// a virtual-time observable, so regeneration with the same seed is
// byte-identical on a fixed GOARCH.
type ServeReport struct {
	Seed      uint64            `json:"seed"`
	MeasureNS int64             `json:"measure_ns"`
	Cores     int               `json:"cores"`
	Cells     []ServeCell       `json:"cells"`
	Fleet     *FleetCell        `json:"fleet,omitempty"`
	Million   *ServeMillionCell `json:"million_requests,omitempty"`
}

// WriteJSON emits the report.
func (r *ServeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// serveCell runs one sweep point on a fresh instance.
func serveCell(pol service.PolicySpec, mult float64, measure sim.Duration, seed uint64) ServeCell {
	// Fixed B budget (no Listing-1 adaptation): the serving layer's own
	// admission policies are the control loop under test here, and the
	// sweep's load axis is calibrated against a constant B-channel rate.
	inst, err := NewInstance(SysEasyIO, serveCores, InstanceOptions{Seed: seed})
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	res, err := service.Run(inst.Eng, inst.RT, inst.CoreFS, service.Config{
		Cores:   serveCores,
		Tenants: serveTenants(mult),
		Policy:  pol,
		Warmup:  2 * sim.Millisecond,
		Measure: measure,
		Seed:    seed,
	})
	if err != nil {
		panic(err)
	}
	cell := ServeCell{
		Policy:   res.Policy,
		Load:     mult,
		Suspends: res.Suspends,
		BLimit:   res.BLimit,
		Digest:   fmt.Sprintf("%#016x", res.Digest()),
	}
	specs := serveTenants(mult)
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		cell.Tenants = append(cell.Tenants, ServeTenantRow{
			Name:       tr.Name,
			Class:      map[core.Class]string{core.ClassL: "L", core.ClassB: "B"}[tr.Class],
			Arrival:    string(specs[i].Arrival.Kind),
			SLONS:      int64(tr.SLO),
			Arrived:    tr.Arrived,
			Shed:       tr.Shed,
			Completed:  tr.Completed,
			Unfinished: tr.Unfinished,
			P50NS:      int64(tr.Lat.P50()),
			P99NS:      int64(tr.Lat.P99()),
			P999NS:     int64(tr.Lat.P999()),
			MeanNS:     int64(tr.Lat.Mean()),
			ShedRate:   tr.ShedRate(),
			Goodput:    tr.Goodput(),
			Throughput: tr.Throughput(),
		})
	}
	return cell
}

// serveMillion runs the capacity cell: a single latency-class tenant at
// 2M req/s for 550ms of virtual time (~1.1M measured requests) on the
// 4KB memcpy fast path.
func serveMillion(seed uint64) ServeMillionCell {
	inst, err := NewInstance(SysEasyIO, 8, InstanceOptions{Seed: seed})
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	res, err := service.Run(inst.Eng, inst.RT, inst.CoreFS, service.Config{
		Cores:          8,
		WorkersPerCore: 4,
		Tenants: []service.TenantSpec{{
			Name:    "firehose",
			Class:   core.ClassL,
			SLO:     500 * sim.Microsecond,
			Arrival: service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 2e6},
			Mix:     service.Mix{Name: "point-read", ReadSize: 4 << 10},
		}},
		Warmup:  sim.Millisecond,
		Measure: 550 * sim.Millisecond,
		Seed:    seed,
	})
	if err != nil {
		panic(err)
	}
	tr := &res.Tenants[0]
	return ServeMillionCell{
		Completed: tr.Completed,
		P50NS:     int64(tr.Lat.P50()),
		P99NS:     int64(tr.Lat.P99()),
		P999NS:    int64(tr.Lat.P999()),
		P9999NS:   int64(tr.Lat.P9999()),
		SpanNS:    int64(tr.Span),
	}
}

// Serve runs the full policy x load sweep (each cell an independent
// virtual machine, fanned out over SimWorkers) and prints the curves. With
// million set it appends the capacity cell. The returned report is the
// BENCH_serve.json payload.
func Serve(w io.Writer, measure sim.Duration, seed uint64, million bool) *ServeReport {
	pols := servePolicies()
	cells := make([]ServeCell, len(pols)*len(serveLoads))
	runJobs(len(cells), func(i int) {
		cells[i] = serveCell(pols[i/len(serveLoads)], serveLoads[i%len(serveLoads)], measure, seed)
	})

	report := &ServeReport{Seed: seed, MeasureNS: int64(measure), Cores: serveCores, Cells: cells}
	for pi, pol := range pols {
		fpf(w, "policy=%s\n", pol.Kind)
		fpf(w, "  %-5s %-8s %-8s %9s %9s %9s %9s %7s %11s\n",
			"load", "tenant", "arrival", "p50us", "p99us", "p999us", "meanus", "shed%", "goodput/s")
		for li := range serveLoads {
			cell := &cells[pi*len(serveLoads)+li]
			for _, tr := range cell.Tenants {
				fpf(w, "  %-5.2g %-8s %-8s %9.1f %9.1f %9.1f %9.1f %7.1f %11.0f\n",
					cell.Load, tr.Name, tr.Arrival,
					float64(tr.P50NS)/1e3, float64(tr.P99NS)/1e3, float64(tr.P999NS)/1e3,
					float64(tr.MeanNS)/1e3, 100*tr.ShedRate, tr.Goodput)
			}
		}
		fpf(w, "\n")
	}

	// The QoS summary the sweep exists for: the overloaded cell's
	// latency-critical tail, baseline vs EWMA.
	idx := func(kind service.PolicyKind) *ServeCell {
		for pi, pol := range pols {
			if pol.Kind == kind {
				return &cells[pi*len(serveLoads)+len(serveLoads)-1]
			}
		}
		return nil
	}
	if base, ewma := idx(service.PolicyNone), idx(service.PolicyEWMA); base != nil && ewma != nil {
		fpf(w, "overload %.2gx: web p99 %.1fus (none) vs %.1fus (ewma), SLO %.1fus\n",
			serveLoads[len(serveLoads)-1],
			float64(base.Tenants[0].P99NS)/1e3, float64(ewma.Tenants[0].P99NS)/1e3,
			float64(serveSLO)/1e3)
	}

	fleet := fleetCell(measure, seed)
	report.Fleet = &fleet
	fpf(w, "fleet cell (router + %d nodes, %.1fus link floor): %d sent, %d acked, %d shed, rtt p50 %.1fus p99 %.1fus p999 %.1fus\n",
		fleet.Nodes, float64(fleet.LinkFloorNS)/1e3,
		fleet.Sent, fleet.Acked, fleet.Shed,
		float64(fleet.RTTP50NS)/1e3, float64(fleet.RTTP99NS)/1e3, float64(fleet.RTTP999NS)/1e3)

	if million {
		m := serveMillion(seed)
		report.Million = &m
		fpf(w, "million-request run: %d completed, p50 %.1fus p99 %.1fus p999 %.1fus p9999 %.1fus\n",
			m.Completed, float64(m.P50NS)/1e3, float64(m.P99NS)/1e3, float64(m.P999NS)/1e3, float64(m.P9999NS)/1e3)
	}
	return report
}
