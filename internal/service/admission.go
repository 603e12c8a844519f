package service

import (
	"fmt"

	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/sim"
)

// PolicyKind selects an admission-control / load-shedding policy.
type PolicyKind string

const (
	// PolicyNone admits everything — the open-loop overload baseline:
	// under offered load above capacity the queue (and every tenant's
	// tail latency) grows without bound.
	PolicyNone PolicyKind = "none"
	// PolicyQueueCap sheds any arrival once the shared queue reaches
	// QueueCap, regardless of tenant.
	PolicyQueueCap PolicyKind = "queue-cap"
	// PolicyEWMA tracks an exponentially weighted moving average of each
	// latency-critical tenant's completion latency against its SLO.
	// When the worst L-tenant EWMA crosses HighWater*SLO the policy
	// starts shedding bandwidth-class and SLO-less tenants, halves the
	// channel manager's B budget (SetBLimit), and denies B arrivals
	// while the L channels are saturated (ReadChanAdmission); it stops
	// shedding once the EWMA falls back below LowWater*SLO.
	PolicyEWMA PolicyKind = "ewma"
	// PolicyPriority scales each tenant's queue allowance with its
	// priority: an arrival of priority p is admitted only while the
	// shared queue is shorter than (p+1)*QueueCap, so low-priority
	// tenants shed first as the backlog grows.
	PolicyPriority PolicyKind = "priority"
)

// PolicySpec parameterizes a policy.
type PolicySpec struct {
	Kind PolicyKind
	// QueueCap is the queue-depth knob of queue-cap/priority policies
	// and the EWMA policy's B-tenant backstop. Default 64.
	QueueCap int
	// HighWater/LowWater are the EWMA shed hysteresis thresholds as
	// fractions of the SLO. Defaults 0.9 and 0.5.
	HighWater float64
	LowWater  float64
}

func (p PolicySpec) withDefaults() PolicySpec {
	if p.Kind == "" {
		p.Kind = PolicyNone
	}
	if p.QueueCap == 0 {
		p.QueueCap = 64
	}
	if p.HighWater == 0 {
		p.HighWater = 0.9
	}
	if p.LowWater == 0 {
		p.LowWater = 0.5
	}
	return p
}

// policy is the runtime admission hook. admit runs at every arrival
// (event context, before the request is queued); complete runs at every
// request completion with the end-to-end latency.
type policy interface {
	name() string
	admit(s *Server, tn *tenant) bool
	complete(s *Server, tn *tenant, lat sim.Duration)
}

func newPolicy(spec PolicySpec) (policy, error) {
	spec = spec.withDefaults()
	switch spec.Kind {
	case PolicyNone:
		return admitAll{}, nil
	case PolicyQueueCap:
		return &queueCap{cap: spec.QueueCap}, nil
	case PolicyEWMA:
		return &ewmaShed{spec: spec}, nil
	case PolicyPriority:
		return &priorityShed{cap: spec.QueueCap}, nil
	}
	return nil, fmt.Errorf("service: unknown policy kind %q", spec.Kind)
}

// admitAll is the no-admission baseline.
type admitAll struct{}

func (admitAll) name() string                            { return string(PolicyNone) }
func (admitAll) admit(*Server, *tenant) bool             { return true }
func (admitAll) complete(*Server, *tenant, sim.Duration) {}

// queueCap sheds every arrival beyond a fixed shared queue depth.
type queueCap struct{ cap int }

func (q *queueCap) name() string                            { return string(PolicyQueueCap) }
func (q *queueCap) admit(s *Server, _ *tenant) bool         { return s.qlen < q.cap }
func (q *queueCap) complete(*Server, *tenant, sim.Duration) {}

// priorityShed gives priority-p tenants a queue allowance of
// (p+1)*QueueCap.
type priorityShed struct{ cap int }

func (p *priorityShed) name() string { return string(PolicyPriority) }
func (p *priorityShed) admit(s *Server, tn *tenant) bool {
	return s.qlen < (tn.spec.Priority+1)*p.cap
}
func (p *priorityShed) complete(*Server, *tenant, sim.Duration) {}

// ewmaAlpha is the EWMA policy's smoothing factor.
const ewmaAlpha = 0.25

// ewmaShed is the SLO-feedback policy. Latency-critical tenants (ClassL
// with an SLO) are never shed below the hard 8x backstop; everyone else
// is shed while the system is in the shedding state.
type ewmaShed struct {
	spec     PolicySpec
	shedding bool
}

func (e *ewmaShed) name() string { return string(PolicyEWMA) }

// pressure is the worst L-tenant EWMA as a fraction of its SLO.
func (e *ewmaShed) pressure(s *Server) float64 {
	worst := 0.0
	for _, tn := range s.tenants {
		if !tn.critical() || tn.ewma == 0 {
			continue
		}
		if p := tn.ewma / float64(tn.spec.SLO); p > worst {
			worst = p
		}
	}
	return worst
}

func (e *ewmaShed) admit(s *Server, tn *tenant) bool {
	if tn.critical() {
		// Latency-critical traffic is only shed by the hard backstop,
		// which catches an L tenant overloading itself.
		return s.qlen < 8*e.spec.QueueCap
	}
	if e.shedding {
		return false
	}
	if s.qlen >= e.spec.QueueCap {
		return false
	}
	// Bulk operations are long (ms-scale DMA transfers) and the queue is
	// FIFO, so admission — not dispatch — must keep bulk from occupying
	// the whole worker pool: cap outstanding bulk work at half the
	// workers so latency-critical requests always find a free uthread.
	if s.bulkOut >= max(1, len(s.workers)/2) {
		return false
	}
	// Listing 2's read admission doubles as a device-pressure signal:
	// if no latency channel has queue-depth headroom, bulk work would
	// land right behind latency-critical transfers.
	if _, ok := s.mgr.ReadChanAdmission(); !ok {
		return false
	}
	return true
}

func (e *ewmaShed) complete(s *Server, tn *tenant, lat sim.Duration) {
	if !tn.critical() {
		return
	}
	if tn.ewma == 0 {
		tn.ewma = float64(lat)
	} else {
		tn.ewma = ewmaAlpha*float64(lat) + (1-ewmaAlpha)*tn.ewma
	}
	p := e.pressure(s)
	if !e.shedding && p > e.spec.HighWater {
		e.shedding = true
		// Cut the B-app DMA budget immediately; SetBLimit keeps it at
		// or above the manager's one-piece-per-epoch floor.
		s.mgr.SetBLimit(s.mgr.BLimit() / 2)
	} else if e.shedding && p < e.spec.LowWater {
		e.shedding = false
	}
}

// critical reports whether the tenant is latency-critical with an SLO —
// the protected class of the EWMA policy.
func (tn *tenant) critical() bool {
	return tn.spec.Class == core.ClassL && tn.spec.SLO > 0
}
