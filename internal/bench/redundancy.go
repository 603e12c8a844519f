package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/easyio-sim/easyio/internal/redundancy"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// The redundancy experiment measures what epoch-batched parity costs the
// foreground: the three-tenant serving workload at 1x load, once with no
// parity, once with the Vilamb-style epoch tracker (two epoch lengths,
// parity DMA on the throttled B channel), and once with the eager
// per-touch baseline (parity DMA competing on the foreground L
// channels). The headline is the trade-off the paper's harvested-window
// story implies: epoch batching holds the latency-critical tenant's p99
// within a small factor of the parity-off run while bounding parity
// freshness lag, and the eager baseline pays a visibly larger tail tax
// for its zero lag.

// redCores is the worker-core count of every redundancy cell.
const redCores = 4

// redDeviceSize keeps the parity region (and its scrub) small: 1 GB
// covers the workload's footprint with ~32k stripes at width 8.
const redDeviceSize = 1 << 30

// redEpochLens is the epoch-length axis (short and long batching).
var redEpochLens = []sim.Duration{500 * sim.Microsecond, 2 * sim.Millisecond}

// redDelayBound is the freshness bound the tracker registers with the
// channel manager and the gate enforces. It is deliberately looser than
// the epoch length: under B-channel saturation an epoch's parity reads
// are squeezed into the harvested windows, so seal-to-persist stretches
// well past one epoch — that stretch, bounded by escalation to the L
// channels at half the bound, is the trade-off. Tightening the bound
// escalates earlier and pays more foreground tail; at 1x load this
// setting keeps the worst epoch inside the bound with the escalated
// tail tax still under the 1.2x p99 budget.
const redDelayBound = 16 * sim.Millisecond

// redTenants is the serve mix with the latency-critical tenant's reads
// sized past the selective-offload cutoff (16 KB > 4 KB): its reads ride
// the L DMA channels, so eager parity traffic on those channels shows up
// in its tail, while epoch parity on the throttled B channel does not.
func redTenants() []service.TenantSpec {
	ts := serveTenants(1.0)
	ts[0].Mix.ReadSize = 16 << 10
	return ts
}

// redAdmissions is the admission-policy axis: the uncontrolled baseline
// and the EWMA feedback policy that actively squeezes B traffic.
func redAdmissions() []service.PolicySpec {
	return []service.PolicySpec{
		{Kind: service.PolicyNone},
		{Kind: service.PolicyEWMA},
	}
}

// RedCell is one (admission, parity-mode) point.
type RedCell struct {
	Admission  string `json:"admission"`
	Mode       string `json:"mode"` // off | epoch | eager
	EpochLenNS int64  `json:"epoch_len_ns,omitempty"`
	FgP50NS    int64  `json:"fg_p50_ns"`
	FgP99NS    int64  `json:"fg_p99_ns"`
	FgP999NS   int64  `json:"fg_p999_ns"`
	FgMeanNS   int64  `json:"fg_mean_ns"`
	FgDone     int64  `json:"fg_completed"`
	// P99Ratio is FgP99NS over the parity-off cell of the same
	// admission policy (1.0 for the off cell itself).
	P99Ratio float64 `json:"p99_ratio"`
	// Parity-side observables (zero in off cells).
	Epochs        int64  `json:"epochs,omitempty"`
	StripesParity int64  `json:"stripes_parity,omitempty"`
	ParityBytes   int64  `json:"parity_bytes,omitempty"`
	DataReadBytes int64  `json:"data_read_bytes,omitempty"`
	Escalated     int64  `json:"escalated_stripes,omitempty"`
	SealedEpoch   uint64 `json:"sealed_epoch,omitempty"`
	CommittedEp   uint64 `json:"committed_epoch,omitempty"`
	MaxLagNS      int64  `json:"max_lag_ns,omitempty"`
	MeanLagNS     int64  `json:"mean_lag_ns,omitempty"`
	Digest        string `json:"digest"`
}

// RedReport is the committed BENCH_redundancy.json payload. Every field
// is a virtual-time observable, so regeneration with the same seed is
// byte-identical on a fixed GOARCH.
type RedReport struct {
	Seed       uint64    `json:"seed"`
	MeasureNS  int64     `json:"measure_ns"`
	Cores      int       `json:"cores"`
	DelayBound int64     `json:"delay_bound_ns"`
	Cells      []RedCell `json:"cells"`
}

// WriteJSON emits the report.
func (r *RedReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// redModes enumerates the parity-mode axis for one admission policy.
type redMode struct {
	name     string
	epochLen sim.Duration // 0 = parity off
	policy   redundancy.Policy
}

func redModesAxis() []redMode {
	return []redMode{
		{name: "off"},
		{name: "epoch", epochLen: redEpochLens[0], policy: redundancy.PolicyEpoch},
		{name: "epoch", epochLen: redEpochLens[1], policy: redundancy.PolicyEpoch},
		{name: "eager", epochLen: redEpochLens[0], policy: redundancy.PolicyEager},
	}
}

// redCell runs one point on a fresh instance: the serve tenant mix at 1x
// load with (optionally) a parity tracker riding along.
func redCell(adm service.PolicySpec, mode redMode, measure sim.Duration, seed uint64) RedCell {
	io := InstanceOptions{Seed: seed, DeviceSize: redDeviceSize}
	if mode.epochLen != 0 {
		io.Redundancy = &redundancy.Options{
			EpochLen:   mode.epochLen,
			DelayBound: redDelayBound,
			Policy:     mode.policy,
		}
	}
	inst, err := NewInstance(SysEasyIO, redCores, io)
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	// The tracker registers its freshness LApp before service.Run starts
	// the manager, and its worker uthread parks until there is dirty
	// state to batch.
	if inst.Parity != nil {
		inst.Parity.Start(inst.RT, inst.CoreFS.Manager())
	}
	res, err := service.Run(inst.Eng, inst.RT, inst.CoreFS, service.Config{
		Cores:   redCores,
		Tenants: redTenants(),
		Policy:  adm,
		Warmup:  2 * sim.Millisecond,
		Measure: measure,
		Seed:    seed,
	})
	if err != nil {
		panic(err)
	}
	fg := &res.Tenants[0] // "web", the latency-critical tenant
	cell := RedCell{
		Admission: res.Policy,
		Mode:      mode.name,
		FgP50NS:   int64(fg.Lat.P50()),
		FgP99NS:   int64(fg.Lat.P99()),
		FgP999NS:  int64(fg.Lat.P999()),
		FgMeanNS:  int64(fg.Lat.Mean()),
		FgDone:    fg.Completed,
		Digest:    fmt.Sprintf("%#016x", res.Digest()),
	}
	if tr := inst.Parity; tr != nil {
		cell.EpochLenNS = int64(mode.epochLen)
		cell.Epochs = tr.Epochs
		cell.StripesParity = tr.StripesParity
		cell.ParityBytes = tr.ParityBytes
		cell.DataReadBytes = tr.DataBytesRead
		cell.Escalated = tr.EscalatedStripes
		cell.SealedEpoch = tr.SealedEpoch()
		cell.CommittedEp = tr.CommittedEpoch()
		cell.MaxLagNS = int64(tr.MaxLag)
		cell.MeanLagNS = int64(tr.MeanLag())
	}
	return cell
}

// Redundancy runs the admission x parity-mode sweep (each cell an
// independent virtual machine, fanned out over SimWorkers) and prints the
// trade-off table. The returned report is the BENCH_redundancy.json
// payload.
func Redundancy(w io.Writer, measure sim.Duration, seed uint64) *RedReport {
	adms := redAdmissions()
	modes := redModesAxis()
	cells := make([]RedCell, len(adms)*len(modes))
	runJobs(len(cells), func(i int) {
		cells[i] = redCell(adms[i/len(modes)], modes[i%len(modes)], measure, seed)
	})

	// P99Ratio vs the off cell of the same admission policy.
	for a := range adms {
		off := &cells[a*len(modes)]
		off.P99Ratio = 1.0
		for m := 1; m < len(modes); m++ {
			c := &cells[a*len(modes)+m]
			if off.FgP99NS > 0 {
				c.P99Ratio = float64(c.FgP99NS) / float64(off.FgP99NS)
			}
		}
	}

	report := &RedReport{
		Seed: seed, MeasureNS: int64(measure), Cores: redCores,
		DelayBound: int64(redDelayBound),
		Cells:      cells,
	}

	for a := range adms {
		fpf(w, "admission=%s\n", cells[a*len(modes)].Admission)
		fpf(w, "  %-6s %-8s %9s %9s %7s %7s %9s %6s %9s %9s\n",
			"mode", "epoch", "p50us", "p99us", "ratio", "epochs", "parityMB", "esc", "maxlagus", "meanlagus")
		for m := range modes {
			c := &cells[a*len(modes)+m]
			epoch := "-"
			if c.EpochLenNS != 0 {
				epoch = fpfS("%gus", float64(c.EpochLenNS)/1e3)
			}
			fpf(w, "  %-6s %-8s %9.1f %9.1f %7.3f %7d %9.2f %6d %9.1f %9.1f\n",
				c.Mode, epoch,
				float64(c.FgP50NS)/1e3, float64(c.FgP99NS)/1e3, c.P99Ratio,
				c.Epochs, float64(c.ParityBytes)/(1<<20), c.Escalated,
				float64(c.MaxLagNS)/1e3, float64(c.MeanLagNS)/1e3)
		}
		fpf(w, "\n")
	}

	// The headline: batched parity rides the harvested windows, eager
	// parity taxes the foreground tail.
	for a := range adms {
		off := &cells[a*len(modes)]
		epoch := &cells[a*len(modes)+1]
		eager := &cells[a*len(modes)+3]
		fpf(w, "%s: epoch-parity p99 %.3fx off, eager %.3fx; epoch max lag %.1fus\n",
			off.Admission, epoch.P99Ratio, eager.P99Ratio, float64(epoch.MaxLagNS)/1e3)
	}
	return report
}
