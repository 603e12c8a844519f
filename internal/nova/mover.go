package nova

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

// DataMover abstracts how file data crosses between DRAM and slow memory.
// Both methods block the calling task until the data is durable (writes)
// or landed in the user buffer (reads): the synchronous interface all
// pre-EasyIO filesystems expose (§2.1). EasyIO bypasses DataMover on its
// async paths.
type DataMover interface {
	// WriteData moves buf (page-aligned CoW image) into the device runs.
	WriteData(t *caladan.Task, fs *FS, runs []Run, buf []byte)
	// ReadData gathers the device runs into the plan's user buffer.
	ReadData(t *caladan.Task, fs *FS, runs []Run, plan ReadPlan)
}

// CPUMover is NOVA's stock memcpy path: the core itself streams the bytes
// (and is therefore fully occupied for the duration — Fig 1's dominant
// cost).
type CPUMover struct{}

// WriteData implements DataMover.
func (CPUMover) WriteData(t *caladan.Task, fs *FS, runs []Run, buf []byte) {
	bytes := DataBytes(runs)
	waitFlow(t, fs, pmem.FlowSpec{Write: true, Kind: pmem.FlowCPU, Bytes: bytes})
	if buf != nil {
		pos := int64(0)
		for _, r := range runs {
			fs.dev.WriteAt(r.Off, buf[pos:pos+r.Bytes()])
			pos += r.Bytes()
		}
	}
}

// ReadData implements DataMover.
func (CPUMover) ReadData(t *caladan.Task, fs *FS, runs []Run, plan ReadPlan) {
	bytes := DataBytes(runs)
	waitFlow(t, fs, pmem.FlowSpec{Write: false, Kind: pmem.FlowCPU, Bytes: bytes})
	plan.CopyOut(fs, runs)
}

// waitFlow starts a device flow and busy-waits (core held) until it
// completes; with a nil task it completes the flow instantly in functional
// contexts by driving the engine via the flow callback ordering.
func waitFlow(t *caladan.Task, fs *FS, spec pmem.FlowSpec) {
	if spec.Bytes == 0 {
		return
	}
	if t == nil {
		// Functional context: no core to occupy. Timing still elapses on
		// the device, but nobody observes it; skip the flow entirely.
		return
	}
	ut := t.UThread()
	spec.OnDone = ut.WakeFn()
	fs.dev.StartFlow(spec)
	t.Wait()
}

// SyncDMAMover is the NOVA-DMA / Fastmove [FAST '23] baseline (§6.1): data
// movement is offloaded to the DMA engine, one descriptor per contiguous
// run, batch submitted round-robin over *all* channels of all engines —
// but the interface stays synchronous, so the core busy-polls completion
// and no CPU cycles are harvested.
type SyncDMAMover struct {
	Engines []*dma.Engine
	next    int
}

// MinDMASize is the size below which even DMA filesystems memcpy (the
// engine underperforms on tiny transfers, Fig 2 ③).
const MinDMASize = 4096

// WriteData implements DataMover.
func (m *SyncDMAMover) WriteData(t *caladan.Task, fs *FS, runs []Run, buf []byte) {
	m.move(t, fs, runs, buf, ReadPlan{}, true)
}

// ReadData implements DataMover.
func (m *SyncDMAMover) ReadData(t *caladan.Task, fs *FS, runs []Run, plan ReadPlan) {
	m.move(t, fs, runs, nil, plan, false)
	plan.CopyOut(fs, runs)
}

func (m *SyncDMAMover) move(t *caladan.Task, fs *FS, runs []Run, buf []byte, plan ReadPlan, write bool) {
	bytes := DataBytes(runs)
	if bytes == 0 {
		return
	}
	if bytes <= MinDMASize || t == nil {
		// Small I/O or functional context: plain memcpy.
		if write {
			CPUMover{}.WriteData(t, fs, runs, buf)
		} else {
			waitFlow(t, fs, pmem.FlowSpec{Write: false, Kind: pmem.FlowCPU, Bytes: bytes})
		}
		return
	}
	cpu := fs.CPUCosts()
	a := fs.Arena(t)
	a.ResetDescs()
	pos := int64(0)
	for _, r := range runs {
		if r.Off < 0 { // hole: nothing to move
			pos += r.Bytes()
			continue
		}
		d := a.Desc()
		d.Write = write
		d.PMOff = r.Off
		d.Size = int(r.Bytes())
		if write && buf != nil {
			d.Buf = buf[pos : pos+r.Bytes()]
		}
		pos += r.Bytes()
	}
	descs := a.ArmDescs(t.UThread())
	if len(descs) == 0 {
		return
	}
	t.Compute(cpu.DMASubmitBase + sim.Duration(len(descs))*cpu.DMASubmitPerDesc)
	// Round-robin descriptors across every channel of every engine
	// (NOVA-DMA uses all channels — the cause of its poor scaling, §6.2).
	total := 0
	for _, e := range m.Engines {
		total += e.NumChannels()
	}
	for i := range descs {
		for tries := 0; ; tries++ {
			eng := m.Engines[m.next%len(m.Engines)]
			ch := eng.Channel((m.next / len(m.Engines)) % eng.NumChannels())
			m.next++
			// A one-element subslice, not Submit(descs[i]): the variadic
			// form would build a fresh slice per descriptor.
			if _, err := ch.Submit(descs[i : i+1]...); err == nil {
				break
			}
			if tries > 0 && tries%total == 0 {
				// Every ring full: spin until completions drain.
				t.Compute(sim.Microsecond)
			}
		}
	}
	t.Wait() // synchronous: busy-poll until all descriptors land
}

var (
	_ DataMover = CPUMover{}
	_ DataMover = (*SyncDMAMover)(nil)
)
