package bench

import (
	"fmt"
	"io"

	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
	"github.com/easyio-sim/easyio/internal/stats"
)

// rawCopyLoop runs one "core": back-to-back copies until end, counting
// bytes. bind runs once, on the copier's proc, and returns its copy
// step: one request (or batch) that blocks the proc until it completes.
// Binding per proc lets a step reuse its flow spec, descriptors and
// completion callbacks for every copy.
func rawCopyLoop(eng *sim.Engine, end sim.Time, bind func(p *sim.Proc) func() int64, counter *int64) {
	eng.StartProc("copier", func(p *sim.Proc) {
		step := bind(p)
		for p.Now() < end {
			*counter += step()
		}
	})
}

// cpuCopy performs one synchronous memcpy of size bytes per step.
func cpuCopy(dev *pmem.Device, write bool, size int) func(*sim.Proc) func() int64 {
	return func(p *sim.Proc) func() int64 {
		spec := pmem.FlowSpec{Write: write, Kind: pmem.FlowCPU, Bytes: int64(size), OnDone: func() { p.Resume() }}
		return func() int64 {
			dev.StartFlow(spec)
			p.Pause()
			return int64(size)
		}
	}
}

// dmaCopy submits batch descriptors of size bytes to ch and waits for
// all, per step. Submission cost is charged as virtual think time before
// the wait. Every descriptor has completed before the step returns, so
// the next step resubmits the same ones.
func dmaCopy(ch *dma.Channel, write bool, size, batch int) func(*sim.Proc) func() int64 {
	submitCost := 300*sim.Nanosecond + sim.Duration(batch)*100*sim.Nanosecond
	return func(p *sim.Proc) func() int64 {
		remaining := 0
		done := func(uint64) {
			remaining--
			if remaining == 0 {
				p.Resume()
			}
		}
		descs := make([]*dma.Desc, batch)
		for i := range descs {
			descs[i] = &dma.Desc{Write: write, PMOff: int64(i) * int64(size), Size: size, OnComplete: done}
		}
		return func() int64 {
			p.Sleep(submitCost)
			remaining = batch
			for {
				if _, err := ch.Submit(descs...); err == nil {
					break
				}
				p.Sleep(2 * sim.Microsecond)
			}
			p.Pause()
			return int64(batch) * int64(size)
		}
	}
}

// Fig2 reproduces the §2.2 bandwidth comparison of memcpy vs the on-chip
// DMA engine across core counts (one DMA channel; batch sizes 1 and 4).
func Fig2(w io.Writer, measure sim.Duration) {
	cores := []int{1, 2, 4, 8, 16}
	type cfg struct {
		name  string
		size  int
		batch int // 0 = memcpy
	}
	cfgs := []cfg{
		{"memcpy-4K", 4096, 0},
		{"DMA-4K-NB", 4096, 1}, {"DMA-4K-B", 4096, 4},
		{"DMA-16K-NB", 16384, 1}, {"DMA-16K-B", 16384, 4},
		{"DMA-64K-NB", 65536, 1}, {"DMA-64K-B", 65536, 4},
	}
	dirs := []string{"write", "read"}
	gbps := make([]float64, len(dirs)*len(cfgs)*len(cores))
	runJobs(len(gbps), func(i int) {
		dir := dirs[i/(len(cfgs)*len(cores))]
		c := cfgs[(i/len(cores))%len(cfgs)]
		n := cores[i%len(cores)]
		eng, dev := microDevice()
		end := sim.Time(measure)
		var bytes int64
		var e *dma.Engine
		if c.batch > 0 {
			e = newMicroEngine(dev, 8)
		}
		for j := 0; j < n; j++ {
			if c.batch == 0 {
				rawCopyLoop(eng, end, cpuCopy(dev, dir == "write", c.size), &bytes)
			} else {
				rawCopyLoop(eng, end, dmaCopy(e.Channel(0), dir == "write", c.size, c.batch), &bytes)
			}
		}
		eng.RunUntil(end)
		eng.Shutdown()
		gbps[i] = stats.GBps(bytes, measure)
	})
	for di, dir := range dirs {
		tb := stats.NewTable(append([]string{"config"}, coreHeaders(cores)...)...)
		for ci, c := range cfgs {
			row := []any{c.name}
			for ni := range cores {
				row = append(row, gbps[(di*len(cfgs)+ci)*len(cores)+ni])
			}
			tb.AddRow(row...)
		}
		fpf(w, "Figure 2 — %s bandwidth (GB/s) vs cores, 1 DMA channel\n%s\n", dir, tb)
	}
}

// Fig3 reproduces bandwidth vs the number of DMA channels (16 cores
// submitting concurrently).
func Fig3(w io.Writer, measure sim.Duration) {
	chans := []int{1, 2, 4, 6, 8}
	sizes := []int{4096, 16384, 65536}
	dirs := []string{"write", "read"}
	gbps := make([]float64, len(dirs)*len(sizes)*len(chans))
	runJobs(len(gbps), func(i int) {
		dir := dirs[i/(len(sizes)*len(chans))]
		size := sizes[(i/len(chans))%len(sizes)]
		nc := chans[i%len(chans)]
		eng, dev := microDevice()
		e := newMicroEngine(dev, nc)
		end := sim.Time(measure)
		var bytes int64
		for j := 0; j < 16; j++ {
			ch := e.Channel(j % nc)
			rawCopyLoop(eng, end, dmaCopy(ch, dir == "write", size, 1), &bytes)
		}
		eng.RunUntil(end)
		eng.Shutdown()
		gbps[i] = stats.GBps(bytes, measure)
	})
	for di, dir := range dirs {
		tb := stats.NewTable("io-size", "1ch", "2ch", "4ch", "6ch", "8ch")
		for si, size := range sizes {
			row := []any{sizeLabel(size)}
			for ci := range chans {
				row = append(row, gbps[(di*len(sizes)+si)*len(chans)+ci])
			}
			tb.AddRow(row...)
		}
		fpf(w, "Figure 3 — %s bandwidth (GB/s) vs #channels, 16 cores\n%s\n", dir, tb)
	}
}

// Fig4 reproduces the foreground/background interference study: a
// foreground program issues 64 KB DMA reads while a background "GC"
// periodically moves 2 MB, via memcpy, a separate DMA channel (EX), or
// the foreground's own channel (SH).
func Fig4(w io.Writer, span sim.Duration) {
	modes := []string{"BG-Memcpy", "BG-DMA-EX", "BG-DMA-SH"}
	tb := stats.NewTable("mode", "baseline(us)", "mean(us)", "max(us)", "p99(us)")
	type fig4Row struct {
		baseline, mean, max, p99 float64
	}
	rows := make([]fig4Row, len(modes))
	runJobs(len(modes), func(mi int) {
		mode := modes[mi]
		eng, dev := microDevice()
		e := newMicroEngine(dev, 8)
		fg := e.Channel(0)
		var bgChan *dma.Channel
		switch mode {
		case "BG-DMA-EX":
			bgChan = e.Channel(1)
		case "BG-DMA-SH":
			bgChan = fg
		}
		end := sim.Time(span)
		var lat stats.Recorder
		sr := &stats.Series{Name: mode}
		var baseline sim.Duration

		// Foreground: 64 KB DMA reads in a closed loop, latency recorded.
		eng.StartProc("fg", func(p *sim.Proc) {
			read := []*dma.Desc{{Size: 64 << 10, OnComplete: func(uint64) { p.Resume() }}}
			for p.Now() < end {
				start := p.Now()
				p.Sleep(400 * sim.Nanosecond) // submit
				mustIO(fg.Submit(read...))
				p.Pause()
				d := sim.Duration(p.Now() - start)
				lat.Add(d)
				if baseline == 0 {
					baseline = d
				}
				sr.Add(p.Now(), d.Micros())
				p.Sleep(20 * sim.Microsecond) // open-loop pacing
			}
		})
		// Background GC: 2 MB bulk movement every 300 µs during the
		// middle third of the run.
		gcStart := end / 3
		gcEnd := 2 * end / 3
		eng.StartProc("bg", func(p *sim.Proc) {
			memcpy := pmem.FlowSpec{Kind: pmem.FlowCPU, Bytes: 2 << 20, OnDone: func() { p.Resume() }}
			move := []*dma.Desc{{Size: 2 << 20, PMOff: 1 << 30, OnComplete: func(uint64) { p.Resume() }}}
			p.Sleep(sim.Duration(gcStart))
			for p.Now() < gcEnd {
				if mode == "BG-Memcpy" {
					dev.StartFlow(memcpy)
				} else {
					mustIO(bgChan.Submit(move...))
				}
				p.Pause()
				p.Sleep(300 * sim.Microsecond)
			}
		})
		eng.RunUntil(end)
		eng.Shutdown()
		rows[mi] = fig4Row{baseline.Micros(), lat.Mean().Micros(), lat.Max().Micros(), lat.P99().Micros()}
	})
	for mi, mode := range modes {
		r := rows[mi]
		tb.AddRow(mode, r.baseline, r.mean, r.max, r.p99)
	}
	fpf(w, "Figure 4 — FG 64KB DMA-read latency under periodic BG 2MB movement\n%s\n", tb)
}

func coreHeaders(cores []int) []string {
	h := make([]string, len(cores))
	for i, c := range cores {
		h[i] = fmt.Sprintf("%dc", c)
	}
	return h
}

func sizeLabel(size int) string {
	if size >= 1<<20 {
		return fmt.Sprintf("%dM", size>>20)
	}
	return fmt.Sprintf("%dK", size>>10)
}
