package bench

import (
	"hash/fnv"

	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// The fleet cell is the serving experiment's multi-domain configuration:
// a router domain generating every tenant's open-loop arrivals, fanned
// out over fleetNodes EasyIO node domains across links with a 2µs floor
// (a top-of-rack RTT share). Each node runs a full instance — device,
// DMA engines, channel manager, caladan runtime and a service.Server fed
// through Inject instead of local arrival chains — and acks every
// completion back to the router, which accounts end-to-end (send to ack)
// round-trip latency. The domains share one sim.Cluster engine, so the
// cell is one deterministic event stream; it does not read SimWorkers.

const (
	fleetNodes     = 3
	fleetCores     = 2
	fleetLinkFloor = 2 * sim.Microsecond
	fleetWarmup    = sim.Millisecond
	fleetDrain     = 5 * sim.Millisecond
)

// fleetTenants is each node's tenant set; the Arrival specs describe
// what the router generates per node.
func fleetTenants() []service.TenantSpec {
	return []service.TenantSpec{
		{
			Name:     "web",
			Class:    core.ClassL,
			Priority: 2,
			SLO:      serveSLO,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 40_000},
			Mix:      service.Mix{Name: "point-read", ReadSize: 4 << 10, Compute: sim.Microsecond},
		},
		{
			Name:     "media",
			Class:    core.ClassB,
			Priority: 1,
			Arrival:  service.ArrivalSpec{Kind: service.ArrivalBurst, Rate: 1_000, Period: 2 * sim.Millisecond, Duty: 0.25},
			Mix:      service.Mix{Name: "ingest", WriteSize: 256 << 10, WriteEvery: 1},
		},
	}
}

// FleetCell is the committed accounting of one fleet run.
type FleetCell struct {
	Nodes       int    `json:"nodes"`
	LinkFloorNS int64  `json:"link_floor_ns"`
	Sent        int64  `json:"sent"`
	Acked       int64  `json:"acked"`
	Shed        int64  `json:"shed"`
	RTTP50NS    int64  `json:"rtt_p50_ns"`
	RTTP99NS    int64  `json:"rtt_p99_ns"`
	RTTP999NS   int64  `json:"rtt_p999_ns"`
	Digest      string `json:"digest"`
}

// fleetCell runs the multi-domain serving cell and folds every
// observable — router counters, the RTT histogram, each node's full
// service result, and the engine's clock and sequence counter — into one
// digest.
func fleetCell(measure sim.Duration, seed uint64) FleetCell {
	cl := sim.NewCluster()
	tenants := fleetTenants()

	warm := sim.Time(fleetWarmup)
	end := warm + sim.Time(measure)
	// The nodes drain for fleetDrain past the last arrival; the run goes
	// one link floor further so the last acks reach the router.
	runEnd := end + sim.Time(fleetDrain) + sim.Time(fleetLinkFloor)

	var (
		router   *sim.Domain
		nodeDoms [fleetNodes]*sim.Domain
		srvs     [fleetNodes]*service.Server
		rtt      stats.Hist
		sent     int64
		acked    int64
		shed     int64
	)

	// The router's arrival chains: one stream per (node, tenant), same
	// processes a local Server would run, generated at the router and
	// shipped across the link.
	router = cl.AddDomain("fleet/router", func(d *sim.Domain) {
		root := rng.New(seed ^ 0xf1ee7)
		for n := 0; n < fleetNodes; n++ {
			for ti := range tenants {
				n, ti := n, ti
				spec := tenants[ti].Arrival
				g := root.Fork(uint64(n*8 + ti))
				var sched func(at sim.Time)
				sched = func(at sim.Time) {
					d.Engine().At(at, func() {
						measured := at >= warm
						if measured {
							sent++
						}
						d.Send(nodeDoms[n], fleetLinkFloor, func() {
							if !srvs[n].Inject(ti, at, measured) {
								nodeDoms[n].Send(router, fleetLinkFloor, func() {
									if measured {
										shed++
									}
								})
							}
						})
						nxt := at + sim.Time(spec.Next(g, at))
						if nxt < end {
							sched(nxt)
						}
					})
				}
				first := sim.Time(spec.Next(g, 0))
				if first < end {
					sched(first)
				}
			}
		}
	})
	for n := 0; n < fleetNodes; n++ {
		n := n
		nodeDoms[n] = cl.AddDomain(fpfS("fleet/node%d", n), func(d *sim.Domain) {
			inst, err := NewInstance(SysEasyIO, fleetCores, InstanceOptions{Seed: seed + uint64(n), Engine: d.Engine()})
			if err != nil {
				panic(err)
			}
			srv, err := service.New(inst.Eng, inst.RT, inst.CoreFS, service.Config{
				Cores:   fleetCores,
				Tenants: fleetTenants(),
				Policy:  service.PolicySpec{Kind: service.PolicyEWMA},
				Warmup:  fleetWarmup,
				Measure: measure,
				Drain:   fleetDrain,
				Seed:    seed + uint64(n),
			})
			if err != nil {
				panic(err)
			}
			srv.OnComplete = func(ti int, measured bool, lat sim.Duration) {
				d.Send(router, fleetLinkFloor, func() {
					if measured {
						acked++
						rtt.Add(lat + fleetLinkFloor)
					}
				})
			}
			srv.StartManager()
			srvs[n] = srv
		})
	}
	for n := 0; n < fleetNodes; n++ {
		cl.Link(router, nodeDoms[n], fleetLinkFloor)
		cl.Link(nodeDoms[n], router, fleetLinkFloor)
	}

	cl.Run(runEnd)
	defer cl.Shutdown()

	cell := FleetCell{
		Nodes:       fleetNodes,
		LinkFloorNS: int64(fleetLinkFloor),
		Sent:        sent,
		Acked:       acked,
		Shed:        shed,
		RTTP50NS:    int64(rtt.P50()),
		RTTP99NS:    int64(rtt.P99()),
		RTTP999NS:   int64(rtt.P999()),
	}
	h := fnv.New64a()
	fpf(h, "sent=%d;acked=%d;shed=%d;", sent, acked, shed)
	rtt.Buckets(func(upper sim.Duration, count int64) {
		fpf(h, "%d=%d,", upper, count)
	})
	eng := router.Engine()
	fpf(h, "now=%d,seq=%d;", int64(eng.Now()), eng.Sequence())
	for n := 0; n < fleetNodes; n++ {
		fpf(h, "node%d:res=%#016x;", n, srvs[n].Finish().Digest())
	}
	cell.Digest = fpfS("%#016x", h.Sum64())
	return cell
}
