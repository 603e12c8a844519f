// Package perfmodel is the single source of truth for every calibrated
// timing constant in the simulation. Constants are derived from the EasyIO
// paper (EuroSys '24) and the measurements it cites for Intel Optane DCPMM
// and the I/OAT on-chip DMA engine. Each constant documents which figure it
// was calibrated against.
//
// Two memory profiles exist because the paper itself uses two setups:
//
//   - MicroNode: the §2.2 empirical study — one NUMA node, 3 DCPMMs,
//     sustained copy loops (cold data, no write-combining reuse).
//     Calibrated against Figures 2, 3 and 4.
//   - System: the full testbed — 2 sockets, 6 DCPMMs, filesystem
//     operations issuing one-shot copies from warm buffers.
//     Calibrated against Figures 1, 8, 9, 10, 11 and 12.
package perfmodel

import "github.com/easyio-sim/easyio/internal/sim"

// GB is bytes per decimal gigabyte; rates below are bytes/second.
const GB = 1e9

// Memory models one NUMA node's slow-memory device plus the on-chip DMA
// engine attached to that socket. All rates are bytes per second.
type Memory struct {
	// CPU copy path (load/store memcpy).

	// CPUReadRate is the per-core PM->DRAM copy rate of a single
	// uncontended core. Fig 1: a 64 KB read spends ~19 µs in memcpy
	// (~3.5 GB/s one-shot); the §2.2 sustained loop achieves less.
	CPUReadRate float64
	// CPUWriteRate is the per-core DRAM->PM (ntstore) copy rate of a
	// single uncontended core. Fig 1: 64 KB write memcpy share 63 % at a
	// ~17 µs total implies ~6 GB/s one-shot.
	CPUWriteRate float64
	// CPUReadAlpha and CPUWriteAlpha degrade the per-core rate as
	// 1/(1+alpha*(n-1)) with n concurrent CPU copiers in that direction.
	// Optane's poor store scalability (Fig 2 conclusion ④, Fig 9: NOVA
	// needs 16 cores to peak at 16 KB writes) is captured by a large
	// write alpha; loads scale almost linearly until the DIMM cap.
	CPUReadAlpha  float64
	CPUWriteAlpha float64

	// DIMM-level capacity of the node (§6.1: 37.6 GB/s read and
	// 13.2 GB/s write across 6 DIMMs; half per 3-DIMM node).
	ReadCap  float64
	WriteCap float64
	// WriteCapDecay shrinks the effective write cap by this fraction per
	// concurrent CPU writer beyond WriteSatWriters, reproducing the sharp
	// post-peak decline of NOVA in Fig 9.
	WriteCapDecay   float64
	WriteSatWriters int

	// DMA engine (I/OAT) attached to this node.

	// DMAChanReadRate / DMAChanWriteRate are a single channel's intrinsic
	// streaming rates. Writes are faster than CPU stores (Fig 2 ①: one
	// channel saturates the node's write bandwidth). A single channel
	// reads faster than one core's memcpy (Fig 8: DMA offload lowers
	// single-thread read latency) but the engine-wide read cap is far
	// below the memcpy aggregate (Fig 2 ②: 63 % below the memcpy peak,
	// reached with 2 channels).
	DMAChanReadRate  float64
	DMAChanWriteRate float64
	// DMAReadCap is the engine-wide read limit (reached with 2 channels,
	// flat afterwards: Fig 3 right). Per engine.
	DMAReadCap float64
	// DMAWriteCapBase is the engine-wide write capacity with one active
	// channel (one channel saturates its node's DIMM write bandwidth,
	// Fig 2 ①). Per engine.
	DMAWriteCapBase float64
	// DMAWriteCapDecay shrinks the engine write capacity by this fraction
	// per active channel beyond the first (Fig 3 left: large-I/O write
	// bandwidth declines monotonically with channel count).
	DMAWriteCapDecay float64
	// DMAStartup is the per-descriptor engine setup latency (fetch,
	// address translation, pipeline fill). It is why 4 KB DMA copies
	// underperform memcpy (Fig 2 ③) and why small-I/O write bandwidth
	// peaks at 4 channels (Fig 3 left).
	DMAStartup sim.Duration

	// NUMARemotePenalty multiplies CPU copy rates for cross-socket
	// accesses (§2.1 cites harmful cross-socket movement on Optane).
	NUMARemotePenalty float64
}

// MicroNode returns the §2.2 single-node profile (3 DCPMMs, sustained
// copies). Calibration targets: Fig 2 (memcpy vs DMA bandwidth by core
// count), Fig 3 (bandwidth by channel count), Fig 4 (interference).
func MicroNode() Memory {
	return Memory{
		CPUReadRate:   2.6 * GB,
		CPUWriteRate:  2.0 * GB,
		CPUReadAlpha:  0.02,
		CPUWriteAlpha: 0.28,

		ReadCap:         15.0 * GB,
		WriteCap:        6.6 * GB,
		WriteCapDecay:   0.02,
		WriteSatWriters: 8,

		DMAChanReadRate:  4.5 * GB,
		DMAChanWriteRate: 9.0 * GB,
		DMAReadCap:       5.6 * GB,
		DMAWriteCapBase:  6.6 * GB,
		DMAWriteCapDecay: 0.07,
		// Cold descriptor issue (address translation, pipeline fill):
		// large enough that 4 KB transfers lose to memcpy at any core
		// count (Fig 2 ③) and that small-I/O write bandwidth peaks at 4
		// channels (Fig 3).
		DMAStartup: 1500 * sim.Nanosecond,

		NUMARemotePenalty: 0.7,
	}
}

// System returns the full 2-socket testbed profile as one aggregated
// device (6 DCPMMs total, one-shot FS copies; NUMA effects are folded into
// per-flow remote penalties, and the two on-chip DMA engines appear as two
// flow groups with per-engine caps). Calibration targets: Fig 1 (latency
// breakdown), Fig 8 (single-thread latency), Fig 9 (throughput vs
// latency), Figs 10-12.
func System() Memory {
	return Memory{
		CPUReadRate:   3.5 * GB,
		CPUWriteRate:  6.0 * GB,
		CPUReadAlpha:  0.05,
		CPUWriteAlpha: 0.5,

		ReadCap:         37.6 * GB,
		WriteCap:        13.2 * GB,
		WriteCapDecay:   0.03,
		WriteSatWriters: 16,

		DMAChanReadRate:  4.5 * GB,
		DMAChanWriteRate: 12.0 * GB,
		DMAReadCap:       6.5 * GB,
		DMAWriteCapBase:  10.0 * GB,
		DMAWriteCapDecay: 0.07,
		// Warm rings and cached translations on the FS's pinned
		// submission path issue faster than the §2.2 cold study.
		DMAStartup: 900 * sim.Nanosecond,

		NUMARemotePenalty: 0.7,
	}
}

// CPURate returns the effective per-core CPU copy rate with n concurrent
// CPU copiers in the given direction (write=true for DRAM->PM).
func (m *Memory) CPURate(write bool, n int) float64 {
	if n < 1 {
		n = 1
	}
	if write {
		return m.CPUWriteRate / (1 + m.CPUWriteAlpha*float64(n-1))
	}
	return m.CPUReadRate / (1 + m.CPUReadAlpha*float64(n-1))
}

// DirCap returns the DIMM-level capacity for a direction given the number
// of concurrent CPU writers (write anti-scaling past saturation).
func (m *Memory) DirCap(write bool, cpuWriters int) float64 {
	if !write {
		return m.ReadCap
	}
	cap := m.WriteCap
	if extra := cpuWriters - m.WriteSatWriters; extra > 0 {
		cap *= 1 - m.WriteCapDecay*float64(extra)
	}
	if cap < 0.15*m.WriteCap {
		cap = 0.15 * m.WriteCap
	}
	return cap
}

// DMACap returns the per-engine capacity for a direction given the number
// of that engine's channels actively moving data in that direction.
func (m *Memory) DMACap(write bool, activeChans int) float64 {
	if activeChans < 1 {
		activeChans = 1
	}
	if !write {
		return m.DMAReadCap
	}
	cap := m.DMAWriteCapBase * (1 - m.DMAWriteCapDecay*float64(activeChans-1))
	if cap < 0.3*m.DMAWriteCapBase {
		cap = 0.3 * m.DMAWriteCapBase
	}
	return cap
}

// CPU holds software-path costs charged on simulated cores.
// Calibrated against Fig 1's non-memcpy components and §4/§5 of the paper.
type CPU struct {
	// Syscall is the syscall + VFS entry/exit overhead per file operation
	// (Fig 1 "syscall & VFS").
	Syscall sim.Duration
	// IndexBase is the cost to look up a file's block mapping; IndexPerPage
	// is added per 4 KB page touched (Fig 1 "indexing").
	IndexBase    sim.Duration
	IndexPerPage sim.Duration
	// MetaAppend is building + persisting one log entry; MetaCommit is the
	// atomic tail-pointer update + fence (Fig 1 "metadata").
	MetaAppend sim.Duration
	MetaCommit sim.Duration
	// AllocBase/AllocPerPage cost the CoW block allocation.
	AllocBase    sim.Duration
	AllocPerPage sim.Duration
	// TimestampUpdate is the read-path metadata touch.
	TimestampUpdate sim.Duration
	// Journal is the two-inode journal cost for rename/link.
	Journal sim.Duration

	// DMASubmitBase/DMASubmitPerDesc model descriptor preparation and the
	// MMIO doorbell; batching amortises the base (§2.2 workflow).
	DMASubmitBase    sim.Duration
	DMASubmitPerDesc sim.Duration
	// SuspendResume is the CHANCMD register manipulation cost (§4.4: 74ns).
	SuspendResume sim.Duration

	// UthreadSwitch is a userspace context switch (§2.3: tens of ns).
	UthreadSwitch sim.Duration
	// PollCheck is one scan of a completion buffer from userspace.
	PollCheck sim.Duration
	// KernelSchedLatency is what waking a blocked *kernel* thread costs;
	// paper §1 cites millisecond-scale rescheduling, we use a conservative
	// small value since baseline FxMark threads spin.
	KernelSchedLatency sim.Duration
}

// DefaultCPU returns the calibrated software cost profile.
func DefaultCPU() CPU {
	return CPU{
		Syscall:         1000 * sim.Nanosecond,
		IndexBase:       300 * sim.Nanosecond,
		IndexPerPage:    25 * sim.Nanosecond,
		MetaAppend:      900 * sim.Nanosecond,
		MetaCommit:      500 * sim.Nanosecond,
		AllocBase:       150 * sim.Nanosecond,
		AllocPerPage:    20 * sim.Nanosecond,
		TimestampUpdate: 100 * sim.Nanosecond,
		Journal:         1500 * sim.Nanosecond,

		DMASubmitBase:    300 * sim.Nanosecond,
		DMASubmitPerDesc: 100 * sim.Nanosecond,
		SuspendResume:    74 * sim.Nanosecond,

		UthreadSwitch:      120 * sim.Nanosecond,
		PollCheck:          40 * sim.Nanosecond,
		KernelSchedLatency: 2 * sim.Microsecond,
	}
}

// PageSize is the filesystem block size (NOVA uses 4 KB pages).
const PageSize = 4096

// Pages returns the number of PageSize pages covering n bytes.
func Pages(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}
