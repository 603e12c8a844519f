package core

import (
	"github.com/easyio-sim/easyio/internal/dma"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/sim"
)

// The channel manager's fixed parameters (§4.4).
const (
	// lChannels is how many channels latency-critical traffic may use
	// (≤4 per the paper's empirical study); they are spread across
	// engines.
	lChannels = 4
	// Epoch is the QoS control interval (µs-scale in the paper).
	Epoch = 50 * sim.Microsecond
	// delta is the per-epoch bandwidth limit adjustment in bytes/sec
	// (Listing 1's hyper-parameter).
	delta = 250e6
	// slackThreshold is Listing 1's `threshold`: when every L-app has
	// more than this fraction of latency headroom, B-apps are throttled
	// up.
	slackThreshold = 0.2
	// BSplit is the maximum B-app descriptor size; bulk I/O is split so
	// channel suspension never repeats large transfers.
	BSplit = 64 << 10
)

// ManagerOptions tunes the traffic-aware channel manager (§4.4).
type ManagerOptions struct {
	// BLimit is the initial (or, without Adaptive, the fixed) B-app
	// bandwidth budget in bytes/sec. Default 2 GB/s.
	BLimit float64
	// Adaptive enables the Listing 1 feedback loop.
	Adaptive bool
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.BLimit == 0 {
		o.BLimit = 2e9
	}
	return o
}

// ChanRef names one channel of one engine.
type ChanRef struct {
	Engine *dma.Engine
	Chan   *dma.Channel
}

// LApp is a registered latency-critical application with an SLO target.
// Uthreads report operation latencies; the manager reads and resets the
// window each epoch.
type LApp struct {
	Target sim.Duration
	sum    sim.Duration
	count  int
}

// Report records one operation latency.
func (l *LApp) Report(d sim.Duration) {
	l.sum += d
	l.count++
}

// window returns the epoch's mean latency and whether any ops ran.
func (l *LApp) window() (sim.Duration, bool) {
	if l.count == 0 {
		return 0, false
	}
	m := l.sum / sim.Duration(l.count)
	l.sum, l.count = 0, 0
	return m, true
}

// Manager assigns DMA channels to traffic classes and regulates B-app
// bandwidth by suspending/resuming the shared B channel (§4.4).
type Manager struct {
	eng      *sim.Engine
	adaptive bool
	lchans   []ChanRef
	bchan    ChanRef
	nextW    int

	lapps  []*LApp
	bLimit float64

	running    bool
	epochBase  int64 // bchan.BytesCompleted at epoch start
	suspACC    int64 // suspend/resume actions (stats)
	BLimitHist []float64

	// checkAt is the current epoch's start; checkSlots are the places in
	// the event order reserved there for its budget checks, and
	// checkNext indexes the next check to schedule.
	checkAt    sim.Time
	checkSlots [budgetChecks]sim.Slot
	checkNext  int

	// budgetCheckFn/epochTickFn are the epoch-loop callbacks, created
	// once so per-epoch scheduling makes no closures.
	budgetCheckFn func()
	epochTickFn   func()
}

// NewManager lays out channels: L channels are spread across engines
// (round-robin) starting at channel 0; the single shared B channel is the
// last channel of engine 0 (never overlapping the L set).
func NewManager(eng *sim.Engine, engines []*dma.Engine, opts ManagerOptions) *Manager {
	opts = opts.withDefaults()
	m := &Manager{eng: eng, adaptive: opts.Adaptive, bLimit: opts.BLimit}
	for i := 0; i < lChannels; i++ {
		e := engines[i%len(engines)]
		ci := i / len(engines)
		if ci >= e.NumChannels()-1 {
			break
		}
		m.lchans = append(m.lchans, ChanRef{Engine: e, Chan: e.Channel(ci)})
	}
	e0 := engines[0]
	m.bchan = ChanRef{Engine: e0, Chan: e0.Channel(e0.NumChannels() - 1)}
	m.budgetCheckFn = m.budgetCheck
	m.epochTickFn = m.epochTick
	return m
}

// LChannels returns the latency-class channel set.
func (m *Manager) LChannels() []ChanRef { return m.lchans }

// BChannel returns the shared bandwidth-class channel.
func (m *Manager) BChannel() ChanRef { return m.bchan }

// BLimit returns the current B-app bandwidth budget (bytes/sec).
func (m *Manager) BLimit() float64 { return m.bLimit }

// SetBLimit sets the budget, clamped to bLimitFloor.
func (m *Manager) SetBLimit(v float64) { m.bLimit = max(v, bLimitFloor()) }

// bLimitFloor is the smallest budget SetBLimit accepts: one BSplit piece
// per epoch, so a throttled B channel still makes progress every epoch.
func bLimitFloor() float64 { return float64(BSplit) / Epoch.Seconds() }

// SuspendCount reports how many CHANCMD actions the manager issued.
func (m *Manager) SuspendCount() int64 { return m.suspACC }

// RegisterLApp adds a latency-critical app with the given SLO target.
func (m *Manager) RegisterLApp(target sim.Duration) *LApp {
	l := &LApp{Target: target}
	m.lapps = append(m.lapps, l)
	return l
}

// NextWriteChan picks an L channel round-robin for write traffic.
func (m *Manager) NextWriteChan() ChanRef {
	c := m.lchans[m.nextW%len(m.lchans)]
	m.nextW++
	return c
}

// ReadChanAdmission implements Listing 2: the first L channel with queue
// depth < 2 admits the read; otherwise the caller falls back to memcpy.
func (m *Manager) ReadChanAdmission() (ChanRef, bool) {
	for _, c := range m.lchans {
		if c.Chan.QueueDepth() < 2 {
			return c, true
		}
	}
	return ChanRef{}, false
}

// SplitB chops a bulk transfer into BSplit-sized descriptor pieces: B-app
// I/O must be small enough that a mid-epoch channel suspension never
// forces a large transfer to restart (§4.4). The pieces are handed out,
// in order, from the arena's descriptor pool.
func (m *Manager) SplitB(a *nova.OpArena, write bool, pmOff int64, buf []byte, size int) {
	for pos := 0; pos < size; pos += BSplit {
		n := size - pos
		if n > BSplit {
			n = BSplit
		}
		d := a.Desc()
		d.Write = write
		d.PMOff = pmOff + int64(pos)
		d.Size = n
		if buf != nil {
			d.Buf = buf[pos : pos+n]
		}
	}
}

// Start launches the per-epoch QoS loop: Listing 1's limit adaptation plus
// budget enforcement by suspending the B channel mid-epoch.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	m.epochBase = m.bchan.Chan.BytesCompleted()
	m.eng.After(Epoch, m.epochTickFn)
	m.scheduleBudgetCheck()
}

// Stop halts the loop after the current epoch.
func (m *Manager) Stop() { m.running = false }

func (m *Manager) epochTick() {
	if !m.running {
		return
	}
	// Listing 1: find the minimum SLO slack across L-apps.
	if m.adaptive {
		min := 1.0
		seen := false
		for _, l := range m.lapps {
			lat, ok := l.window()
			if !ok {
				continue
			}
			seen = true
			slack := float64(l.Target-lat) / float64(l.Target)
			if slack < min {
				min = slack
			}
		}
		if seen {
			v := m.bLimit
			if min < 0 {
				v -= delta
			} else if min > slackThreshold {
				v += delta
			}
			m.SetBLimit(v)
		}
		m.BLimitHist = append(m.BLimitHist, m.bLimit)
	}
	// New epoch: reset the budget and resume the B channel.
	m.epochBase = m.bchan.Chan.BytesCompleted()
	if m.bchan.Chan.Suspended() {
		m.bchan.Chan.Resume()
		m.suspACC++
	}
	m.eng.After(Epoch, m.epochTickFn)
	m.scheduleBudgetCheck()
}

// budgetChecks is how many times an epoch samples B-channel consumption,
// at each eighth of the epoch after its start.
const budgetChecks = 7

// scheduleBudgetCheck reserves the epoch's budget-check slots, where
// seven eager After calls would stand, and queues only the first check.
// Each check queues the next into its slot until the B channel is
// suspended. Only epochTick resumes the channel, and the next tick comes
// after the last check, so every check left out would have returned at
// its first line: the schedule is the eager one, minus no-op events.
func (m *Manager) scheduleBudgetCheck() {
	m.checkAt = m.eng.Now()
	for i := range m.checkSlots {
		m.checkSlots[i] = m.eng.Reserve()
	}
	m.checkNext = 0
	m.queueBudgetCheck()
}

// queueBudgetCheck puts the epoch's next budget check into its slot.
func (m *Manager) queueBudgetCheck() {
	if m.checkNext == budgetChecks {
		return
	}
	k := m.checkNext
	m.checkNext++
	m.eng.AtSlot(m.checkAt+sim.Time(sim.Duration(k+1)*(Epoch/8)), m.checkSlots[k], m.budgetCheckFn)
}

// budgetCheck is one mid-epoch budget sample (scheduled pre-bound as
// budgetCheckFn): it suspends the B channel once the epoch's byte budget
// is spent.
func (m *Manager) budgetCheck() {
	if m.bchan.Chan.Suspended() {
		return
	}
	budget := int64(m.bLimit * Epoch.Seconds())
	if m.running && m.bchan.Chan.BytesCompleted()-m.epochBase >= budget {
		m.bchan.Chan.Suspend()
		m.suspACC++
		return
	}
	m.queueBudgetCheck()
}
