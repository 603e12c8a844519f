package bench

import (
	"fmt"
	"io"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/rng"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// AblationDSAMode evaluates the paper's §5 future-work proposal: with
// many L-apps, I/OAT forces them to share a few channels (head-of-line
// blocking between apps), while DSA gives each L-app its own prioritized
// work queue. We colocate 8 L-apps issuing 64 KB writes, one of them
// "premium" (high priority under DSA), and compare its latency tail.
func AblationDSAMode(w io.Writer, span sim.Duration, seed uint64) {
	type result struct {
		mean, p99, max sim.Duration
	}
	run := func(useDSA bool) result {
		eng := sim.NewEngine()
		dev := pmem.New(eng, perfmodel.System(), 4<<30)
		const apps = 8
		var chans [apps]*dma.Channel
		if useDSA {
			pr := make([]int, apps)
			for i := range pr {
				pr[i] = 1
			}
			pr[0] = 10 // the premium app
			dsa := dma.NewDSA(dev, 0, pr, 4, 0)
			for i := range chans {
				chans[i] = dsa.Channel(i)
			}
		} else {
			// I/OAT: L-apps share 4 channels round-robin.
			ioat := dma.NewEngine(dev, 0, 4, 0)
			for i := range chans {
				chans[i] = ioat.Channel(i % 4)
			}
		}
		end := sim.Time(span)
		var premium stats.Recorder
		g := rng.New(seed)
		for i := 0; i < apps; i++ {
			i := i
			ag := g.Fork(uint64(i))
			eng.StartProc("lapp", func(p *sim.Proc) {
				for p.Now() < end {
					start := p.Now()
					p.Sleep(400 * sim.Nanosecond) // submit cost
					done := func(uint64) { p.Resume() }
					d := &dma.Desc{Write: true, PMOff: int64(i) << 24, Size: 64 << 10, OnComplete: done}
					for {
						if _, err := chans[i].Submit(d); err == nil {
							break
						}
						p.Sleep(2 * sim.Microsecond)
					}
					p.Pause()
					if i == 0 {
						premium.Add(sim.Duration(p.Now() - start))
					}
					p.Sleep(sim.Duration(ag.Exp(30_000))) // ~33k ops/s offered
				}
			})
		}
		eng.RunUntil(end)
		eng.Shutdown()
		return result{premium.Mean(), premium.P99(), premium.Max()}
	}
	tb := stats.NewTable("engine", "premium mean(us)", "p99(us)", "max(us)")
	var res [2]result
	runJobs(2, func(i int) { res[i] = run(i == 1) })
	ioat, dsaR := res[0], res[1]
	tb.AddRow("I/OAT shared channels", ioat.mean.Micros(), ioat.p99.Micros(), ioat.max.Micros())
	tb.AddRow("DSA per-app WQ + priority", dsaR.mean.Micros(), dsaR.p99.Micros(), dsaR.max.Micros())
	fpf(w, "Ablation — DSA-mode channel manager (§5): premium L-app latency among 8 L-apps\n%s\n", tb)
}

// AblationPollCost sweeps the scheduler's completion-poll cost to show
// the sensitivity the paper's design implies: completion observation
// happens at scheduling points, so costlier polls delay wakeups under
// load.
func AblationPollCost(w io.Writer, measure sim.Duration, seed uint64) {
	tb := stats.NewTable("poll-cost(ns)", "64K write avg(us)", "p99(us)")
	polls := []sim.Duration{10, 40, 160, 640}
	lats := make([]*stats.Recorder, len(polls))
	runJobs(len(polls), func(i int) {
		cpu := perfmodel.DefaultCPU()
		cpu.PollCheck = polls[i]
		lats[i] = measureWriteLatencyWithCPU(cpu, 64<<10, measure, seed)
	})
	for i, poll := range polls {
		tb.AddRow(int64(poll), lats[i].Mean().Micros(), lats[i].P99().Micros())
	}
	fpf(w, "Ablation — completion-poll cost sweep (EasyIO, 4 cores, 64KB writes)\n%s\n", tb)
}

// AblationOffloadThreshold sweeps the selective-offload cutoff (§4.4
// fixes it at 4 KB) across write sizes, reporting single-thread latency.
func AblationOffloadThreshold(w io.Writer) {
	cut := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	sizes := []int{4 << 10, 16 << 10, 64 << 10}
	header := []string{"cutoff"}
	for _, s := range sizes {
		header = append(header, sizeLabel(s)+" write(us)")
	}
	tb := stats.NewTable(header...)
	durs := make([]sim.Duration, len(cut)*len(sizes))
	runJobs(len(durs), func(ji int) {
		c, size := cut[ji/len(sizes)], sizes[ji%len(sizes)]
		inst, err := NewInstance(SysEasyIO, 1, InstanceOptions{BusyPoll: true})
		if err != nil {
			panic(err)
		}
		inst.CoreFS.SetMinDMASize(c)
		var dur sim.Duration
		inst.RT.Spawn(0, "probe", func(task *caladan.Task) {
			f := mustIO(inst.FS.Create(task, "/p"))
			buf := make([]byte, size)
			mustIO(inst.FS.WriteAt(task, f, 0, buf))
			start := task.Now()
			for i := 0; i < 8; i++ {
				mustIO(inst.FS.WriteAt(task, f, 0, buf))
			}
			dur = sim.Duration(task.Now()-start) / 8
		})
		inst.Eng.Run()
		inst.Close()
		durs[ji] = dur
	})
	for ci, c := range cut {
		row := []any{sizeLabel(c)}
		for si := range sizes {
			row = append(row, durs[ci*len(sizes)+si].Micros())
		}
		tb.AddRow(row...)
	}
	fpf(w, "Ablation — selective-offload cutoff sweep (1 thread; §4.4 uses 4K)\n%s\n", tb)
}

// measureWriteLatencyWithCPU runs a small EasyIO write workload under a
// custom CPU cost profile.
func measureWriteLatencyWithCPU(cpu perfmodel.CPU, size int, measure sim.Duration, seed uint64) *stats.Recorder {
	inst, err := NewInstance(SysEasyIO, 4, InstanceOptions{Seed: seed})
	if err != nil {
		panic(err)
	}
	defer inst.Close()
	// Rebuild the runtime with the custom profile (the FS costs stay
	// default; the poll cost under study is the runtime's).
	inst.RT = caladan.New(inst.Eng, caladan.Options{Cores: 4, CPU: cpu, Seed: seed})
	var lat stats.Recorder
	end := sim.Time(measure)
	for i := 0; i < 8; i++ {
		i := i
		inst.RT.Spawn(i%4, "w", func(task *caladan.Task) {
			f := mustIO(inst.FS.Create(task, fmt.Sprintf("/w%d", i)))
			buf := make([]byte, size)
			for task.Now() < end {
				start := task.Now()
				mustIO(inst.FS.WriteAt(task, f, 0, buf))
				lat.Add(sim.Duration(task.Now() - start))
			}
		})
	}
	inst.Eng.RunUntil(end)
	return &lat
}
