package sim

import "fmt"

// A Cluster groups Engine-driven node state into named domains that share
// one Engine and exchange messages only through Send over declared links.
// Each link carries a latency floor (router/DMA delay) that every message
// must respect, so the topology stays an honest model of a fleet: a node
// cannot observe another node's effect sooner than the wire allows.
//
// There is one virtual clock. A Send is an engine event scheduled delay
// ahead, ordered with every other event by the engine's (time, seq) rule,
// so a cluster run is exactly as deterministic as a single-engine run.

// Domain is one node of a Cluster: a name, the links it may send over,
// and the node-confined state its init function builds on the shared
// engine.
type Domain struct {
	name  string
	cl    *Cluster
	init  func(*Domain)
	floor map[*Domain]Duration
}

// Cluster is a set of linked domains on one Engine. Create with
// NewCluster, add domains and links, then Run.
type Cluster struct {
	eng     *Engine
	domains []*Domain
	ran     bool
}

// NewCluster returns an empty cluster with a fresh engine.
func NewCluster() *Cluster {
	return &Cluster{eng: NewEngine()}
}

// AddDomain creates a domain on the cluster's engine. init (optional)
// builds the domain's node-confined state; Run calls it, in AddDomain
// order, before the first event.
func (c *Cluster) AddDomain(name string, init func(*Domain)) *Domain {
	if c.ran {
		panic("sim: AddDomain after Cluster.Run")
	}
	d := &Domain{name: name, cl: c, init: init, floor: make(map[*Domain]Duration)}
	c.domains = append(c.domains, d)
	return d
}

// Link declares that src may send to dst with at least floor of latency.
// The floor must be positive: a zero-latency link would let two nodes
// act on each other within one instant.
func (c *Cluster) Link(src, dst *Domain, floor Duration) {
	if c.ran {
		panic("sim: Link after Cluster.Run")
	}
	if src == dst {
		panic("sim: self-link on domain " + src.name)
	}
	if floor <= 0 {
		panic(fmt.Sprintf("sim: link %s -> %s needs a positive latency floor", src.name, dst.name))
	}
	src.floor[dst] = floor
}

// Engine returns the engine every domain of the cluster runs on.
func (d *Domain) Engine() *Engine { return d.cl.eng }

// Send runs fn delay nanoseconds from now, as a message from d to dst. It
// must be called from event context, the domains must be linked, and
// delay must be at least the link's floor.
func (d *Domain) Send(dst *Domain, delay Duration, fn func()) {
	floor, ok := d.floor[dst]
	if !ok {
		panic(fmt.Sprintf("sim: send on unlinked pair %s -> %s", d.name, dst.name))
	}
	if delay < floor {
		panic(fmt.Sprintf("sim: send %s -> %s with delay %dns below the link floor %dns", d.name, dst.name, delay, floor))
	}
	if !d.cl.eng.inEvent {
		panic("sim: Send outside event context on domain " + d.name)
	}
	d.cl.eng.After(delay, fn)
}

// Run calls every domain's init, then processes events up to and
// including end and advances the clock to end (Engine.RunUntil). A panic
// in domain code surfaces from Run on the caller's goroutine.
func (c *Cluster) Run(end Time) {
	if c.ran {
		panic("sim: Cluster.Run called twice")
	}
	c.ran = true
	for _, d := range c.domains {
		if d.init != nil {
			d.init(d)
		}
	}
	c.eng.RunUntil(end)
}

// Shutdown kills the engine's live procs (post-run teardown).
func (c *Cluster) Shutdown() { c.eng.Shutdown() }
