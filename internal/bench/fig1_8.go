package bench

import (
	"io"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// fig8Sizes are the I/O sizes of Figures 1, 8 and 11.
var fig8Sizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}

// Fig1 reproduces NOVA's single-thread latency breakdown: metadata,
// memcpy, indexing, and syscall & VFS. The components are the cost-model
// charges of the write/read paths; the driver cross-checks that their sum
// matches the measured end-to-end latency on the virtual clock.
func Fig1(w io.Writer) {
	cpu := perfmodel.DefaultCPU()
	mem := perfmodel.System()
	ops := []string{"write", "read"}
	measuredAt := make([]sim.Duration, len(ops)*len(fig8Sizes))
	runJobs(len(measuredAt), func(i int) {
		measuredAt[i], _ = measureOpLatency(SysNOVA, ops[i/len(fig8Sizes)], fig8Sizes[i%len(fig8Sizes)])
	})
	for oi, op := range ops {
		tb := stats.NewTable("io-size", "syscall&vfs(us)", "indexing(us)", "metadata(us)", "memcpy(us)", "total(us)", "memcpy-share")
		for si, size := range fig8Sizes {
			pages := perfmodel.Pages(size)
			syscall := cpu.Syscall
			indexing := cpu.IndexBase + sim.Duration(pages)*cpu.IndexPerPage
			var meta, memcpyT sim.Duration
			if op == "write" {
				meta = cpu.MetaAppend + cpu.MetaCommit + cpu.AllocBase + sim.Duration(pages)*cpu.AllocPerPage
				memcpyT = sim.Duration(float64(size) / mem.CPUWriteRate * 1e9)
			} else {
				meta = cpu.TimestampUpdate
				memcpyT = sim.Duration(float64(size) / mem.CPUReadRate * 1e9)
			}
			total := syscall + indexing + meta + memcpyT
			measured := measuredAt[oi*len(fig8Sizes)+si]
			// The analytic decomposition must match the simulation.
			if diff := measured - total; diff < -sim.Microsecond || diff > sim.Microsecond {
				fpf(w, "WARNING: %s %d: measured %v vs decomposed %v\n", op, size, measured, total)
			}
			tb.AddRow(sizeLabel(size), syscall.Micros(), indexing.Micros(), meta.Micros(),
				memcpyT.Micros(), measured.Micros(), float64(memcpyT)/float64(measured))
		}
		fpf(w, "Figure 1 — NOVA %s latency breakdown (1 thread)\n%s\n", op, tb)
	}
}

// Fig8 reproduces the single-thread end-to-end latency comparison across
// all four filesystems plus the EasyIO-CPU series (CPU time EasyIO spends
// per op, the rest being harvestable). EasyIO busy-polls its completion
// (one uthread per core), as in the paper.
func Fig8(w io.Writer) {
	ops := []string{"write", "read"}
	systems := AllSystems()
	type cell struct{ lat, cpu sim.Duration }
	cells := make([]cell, len(ops)*len(fig8Sizes)*len(systems))
	runJobs(len(cells), func(i int) {
		op := ops[i/(len(fig8Sizes)*len(systems))]
		size := fig8Sizes[(i/len(systems))%len(fig8Sizes)]
		lat, cpuT := measureOpLatency(systems[i%len(systems)], op, size)
		cells[i] = cell{lat, cpuT}
	})
	for oi, op := range ops {
		tb := stats.NewTable("io-size", "NOVA(us)", "NOVA-DMA(us)", "Odinfs(us)", "EasyIO(us)", "EasyIO-CPU(us)")
		for si, size := range fig8Sizes {
			row := []any{sizeLabel(size)}
			var easyCPU float64
			for yi, sys := range systems {
				c := cells[(oi*len(fig8Sizes)+si)*len(systems)+yi]
				row = append(row, c.lat.Micros())
				if sys == SysEasyIO {
					easyCPU = c.cpu.Micros()
				}
			}
			row = append(row, easyCPU)
			tb.AddRow(row...)
		}
		fpf(w, "Figure 8 — single-thread %s latency\n%s\n", op, tb)
	}
}

// measureOpLatency times one single-threaded op on one system; for EasyIO
// it also returns the CPU time per op. BusyPoll is EasyIO's latency mode;
// the other systems ignore it.
func measureOpLatency(sys System, op string, size int) (lat, cpuTime sim.Duration) {
	inst, err := NewInstance(sys, 1, InstanceOptions{BusyPoll: true})
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	var dur sim.Duration
	inst.RT.Spawn(0, "probe", func(task *caladan.Task) {
		f := mustIO(inst.FS.Create(task, "/probe"))
		buf := make([]byte, size)
		mustIO(inst.FS.WriteAt(task, f, 0, buf))
		if inst.CoreFS != nil {
			inst.CoreFS.CPUTimeWrite, inst.CoreFS.CPUTimeRead = 0, 0
		}
		start := task.Now()
		const reps = 8
		for i := 0; i < reps; i++ {
			if op == "write" {
				mustIO(inst.FS.WriteAt(task, f, 0, buf))
			} else {
				mustIO(inst.FS.ReadAt(task, f, 0, buf))
			}
		}
		dur = sim.Duration(task.Now()-start) / reps
		if inst.CoreFS != nil {
			if op == "write" {
				cpuTime = inst.CoreFS.CPUTimeWrite / reps
			} else {
				cpuTime = inst.CoreFS.CPUTimeRead / reps
			}
		}
	})
	inst.Eng.Run()
	return dur, cpuTime
}
