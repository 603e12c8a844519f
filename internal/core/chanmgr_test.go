package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/sim"
)

// TestManagerEpochBudgetAccounting pins the epochTick/scheduleBudgetCheck
// cycle: with saturating B traffic and a budget smaller than one BSplit
// piece per epoch, every epoch must suspend the B channel exactly once
// mid-epoch (budget exhausted) and resume it exactly once at the next
// tick — two CHANCMD actions per epoch, with the channel observably
// resumed just after each boundary and suspended before the next.
func TestManagerEpochBudgetAccounting(t *testing.T) {
	h := newHarness(t, 1, Options{Manager: ManagerOptions{BLimit: 1e9}})
	m := h.fs.Manager()
	m.Start()
	h.rt.Spawn(0, "gc", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/bulk")
		for i := 0; i < 8; i++ {
			h.fs.WriteAtClass(task, f, 0, make([]byte, 2<<20), ClassB)
		}
	})
	bchan := m.BChannel().Chan
	type probe struct {
		at        sim.Time
		suspended bool
	}
	var got []probe
	for e := 1; e <= 8; e++ {
		// Just after the tick: the new epoch's budget is fresh, so the
		// channel must have been resumed.
		at := sim.Time(sim.Duration(e)*Epoch) + sim.Time(2*sim.Microsecond)
		h.eng.At(at, func() { got = append(got, probe{at, bchan.Suspended()}) })
		// Late in the epoch: one 64KB piece (≥ the 50KB/epoch budget) has
		// completed, so the budget check must have suspended the channel.
		late := sim.Time(sim.Duration(e)*Epoch) + sim.Time(45*sim.Microsecond)
		h.eng.At(late, func() { got = append(got, probe{late, bchan.Suspended()}) })
	}
	h.eng.RunUntil(sim.Time(10 * Epoch))
	for _, p := range got {
		phase := sim.Duration(p.at) % Epoch
		if phase < 10*sim.Microsecond && p.suspended {
			t.Errorf("t=%v: channel still suspended just after the epoch tick", p.at)
		}
		if phase > 40*sim.Microsecond && !p.suspended {
			t.Errorf("t=%v: budget check never suspended the channel this epoch", p.at)
		}
	}
	// Two actions (one suspend, one resume) per saturated epoch across
	// the 10-epoch window, give or take the first and last partials.
	if n := m.SuspendCount(); n < 14 || n > 22 {
		t.Errorf("SuspendCount = %d over 10 saturated epochs, want ~2 per epoch", n)
	}
	m.Stop()
	h.eng.Run()
	h.eng.Shutdown()
}

// TestManagerBudgetChain pins the budget-check chain under 20 epochs of
// saturating B traffic. The adaptive loop starts at 8 GB/s and an L-app
// misses its SLO every epoch, so the budget falls by delta per epoch and
// the suspending check moves from the seventh to the fourth; some epochs
// never suspend, and their chain runs all seven checks. Every suspend
// and resume instant, SuspendCount and the sequence counter are literals
// from the eager schedule (seven checks queued at each tick), which the
// chain must reproduce. The epoch never has more than one check queued,
// and none once a check has suspended the channel.
func TestManagerBudgetChain(t *testing.T) {
	h := newHarness(t, 2, Options{Manager: ManagerOptions{BLimit: 8e9, Adaptive: true}})
	m := h.fs.Manager()
	lapp := m.RegisterLApp(20 * sim.Microsecond)
	for e := 0; e < 20; e++ {
		at := sim.Time(sim.Duration(e)*Epoch) + sim.Time(10*sim.Microsecond)
		h.eng.At(at, func() { lapp.Report(100 * sim.Microsecond) })
	}
	var log []string
	fired := 0 // budget checks fired this epoch
	check, tick := m.budgetCheckFn, m.epochTickFn
	m.budgetCheckFn = func() {
		fired++
		if queued := m.checkNext - fired; queued != 0 {
			t.Errorf("t=%v: %d more budget checks queued beside the one firing", h.eng.Now(), queued)
		}
		n := m.suspACC
		check()
		if m.suspACC != n {
			log = append(log, fmt.Sprintf("suspend@%d", h.eng.Now()))
			if queued := m.checkNext - fired; queued != 0 {
				t.Errorf("t=%v: the channel is suspended with %d budget checks still queued", h.eng.Now(), queued)
			}
		}
	}
	m.epochTickFn = func() {
		n := m.suspACC
		tick()
		fired = 0
		if m.suspACC != n {
			log = append(log, fmt.Sprintf("resume@%d", h.eng.Now()))
		}
	}
	m.Start()
	h.rt.Spawn(0, "gc", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/bulk")
		for i := 0; i < 16; i++ {
			h.fs.WriteAtClass(task, f, 0, make([]byte, 2<<20), ClassB)
		}
	})
	h.eng.RunUntil(sim.Time(20 * Epoch))
	want := "[suspend@93750 resume@100000 suspend@193750 resume@200000 suspend@387500 resume@400000 " +
		"suspend@437500 resume@450000 suspend@487500 resume@500000 suspend@537500 resume@550000 " +
		"suspend@587500 resume@600000 suspend@675000 resume@700000 suspend@731250 resume@750000 " +
		"suspend@781250 resume@800000 suspend@831250 resume@850000 suspend@875000 resume@900000 " +
		"suspend@925000 resume@950000 suspend@975000 resume@1000000]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("suspend/resume instants:\n got %s\nwant %s", got, want)
	}
	if n := m.SuspendCount(); n != 28 {
		t.Errorf("SuspendCount = %d, want 28", n)
	}
	if n := h.eng.Sequence(); n != 406 {
		t.Errorf("Sequence = %d, want 406", n)
	}
	m.Stop()
	h.eng.Run()
	h.eng.Shutdown()
}

// TestSetBLimitFloor pins SetBLimit's clamp: a budget below one BSplit
// piece per epoch lands bit-exactly on that floor, the run-time float64
// quotient float64(BSplit) / Epoch.Seconds(); a budget at or above it is
// stored verbatim.
func TestSetBLimitFloor(t *testing.T) {
	h := newHarness(t, 1, Options{})
	m := h.fs.Manager()
	lo := float64(BSplit) / Epoch.Seconds()
	for _, v := range []float64{-1, 0, 1e9, math.Nextafter(lo, 0)} {
		m.SetBLimit(v)
		if got := m.BLimit(); math.Float64bits(got) != math.Float64bits(lo) {
			t.Errorf("SetBLimit(%v) stored %v, want the floor %v", v, got, lo)
		}
	}
	for _, v := range []float64{lo, math.Nextafter(lo, math.Inf(1)), 2e9, 8e9} {
		m.SetBLimit(v)
		if got := m.BLimit(); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("SetBLimit(%v) stored %v, want it verbatim", v, got)
		}
	}
	h.eng.Shutdown()
}

// TestReadChanAdmissionDenial pins Listing 2 against directly loaded
// channels: admission scans L channels in order and returns the first
// with queue depth < 2; when every L channel is at depth >= 2 it denies,
// and the denial clears as soon as one channel drains.
func TestReadChanAdmissionDenial(t *testing.T) {
	h := newHarness(t, 1, Options{})
	m := h.fs.Manager()
	lchans := m.LChannels()
	if len(lchans) < 2 {
		t.Fatalf("want >= 2 L channels, got %d", len(lchans))
	}
	if c, ok := m.ReadChanAdmission(); !ok || c.Chan != lchans[0].Chan {
		t.Fatal("idle manager must admit on the first L channel")
	}
	// Load every L channel to depth 2 with bulk reads.
	buf := make([]byte, 1<<20)
	for _, c := range lchans {
		for i := 0; i < 2; i++ {
			if _, err := c.Chan.Submit(&dma.Desc{PMOff: 0, Size: len(buf), Buf: buf}); err != nil {
				t.Fatal(err)
			}
		}
		if d := c.Chan.QueueDepth(); d < 2 {
			t.Fatalf("channel loaded to depth %d, want >= 2", d)
		}
	}
	if _, ok := m.ReadChanAdmission(); ok {
		t.Fatal("admission granted while every L channel is saturated")
	}
	// A latency-class read must still complete under denial (the caller
	// falls back to the synchronous memcpy path).
	done := false
	h.rt.Spawn(0, "rd", func(task *caladan.Task) {
		f, _ := h.fs.Create(task, "/f")
		h.fs.WriteAt(task, f, 0, make([]byte, 64<<10))
		if _, err := h.fs.ReadAtClass(task, f, 0, make([]byte, 32<<10), ClassL); err != nil {
			t.Error(err)
			return
		}
		done = true
	})
	h.eng.Run()
	if !done {
		t.Fatal("ClassL read did not complete under admission denial")
	}
	// The queued descriptors have drained; the scan order is pinned to
	// the first channel again.
	if c, ok := m.ReadChanAdmission(); !ok || c.Chan != lchans[0].Chan {
		t.Fatal("admission must recover on the first L channel after drain")
	}
	h.eng.Shutdown()
}

// TestLAppWindow pins the Report/window contract LApp feeds the adaptive
// loop with: windows average the reported latencies, reset on read, and
// answer (0, false) when no operations ran.
func TestLAppWindow(t *testing.T) {
	l := &LApp{Target: 20 * sim.Microsecond}
	if _, ok := l.window(); ok {
		t.Fatal("empty window reported data")
	}
	l.Report(10 * sim.Microsecond)
	l.Report(20 * sim.Microsecond)
	l.Report(33 * sim.Microsecond)
	if m, ok := l.window(); !ok || m != 21*sim.Microsecond {
		t.Fatalf("window = %v,%v, want 21us,true", m, ok)
	}
	if _, ok := l.window(); ok {
		t.Fatal("window did not reset after read")
	}
}

// TestManagerAdaptiveBurstyWindows pins Listing 1 under bursty load:
// epochs in which the L-app reported SLO-violating latencies lower the
// B limit by exactly Delta, and silent epochs (no reports) leave it
// untouched rather than drifting.
func TestManagerAdaptiveBurstyWindows(t *testing.T) {
	h := newHarness(t, 1, Options{Manager: ManagerOptions{Adaptive: true, BLimit: 4e9}})
	m := h.fs.Manager()
	lapp := m.RegisterLApp(20 * sim.Microsecond)
	m.Start()
	// Bursty reporting: the app only runs in even epochs, violating its
	// SLO when it does.
	const epochs = 20
	for e := 0; e < epochs; e++ {
		if e%2 != 0 {
			continue
		}
		at := sim.Time(sim.Duration(e)*Epoch) + sim.Time(10*sim.Microsecond)
		h.eng.At(at, func() { lapp.Report(100 * sim.Microsecond) })
	}
	h.eng.RunUntil(sim.Time(sim.Duration(epochs)*Epoch) + sim.Time(sim.Microsecond))
	m.Stop()
	hist := m.BLimitHist
	if len(hist) < epochs {
		t.Fatalf("BLimitHist has %d entries, want >= %d", len(hist), epochs)
	}
	prev := 4e9
	for e := 0; e < epochs; e++ {
		if e%2 == 0 {
			if want := prev - delta; hist[e] != want {
				t.Fatalf("epoch %d (violating): limit %.4g, want %.4g", e, hist[e], want)
			}
		} else if hist[e] != prev {
			t.Fatalf("epoch %d (silent): limit drifted %.4g -> %.4g", e, prev, hist[e])
		}
		prev = hist[e]
	}
	h.eng.Run()
	h.eng.Shutdown()
}
