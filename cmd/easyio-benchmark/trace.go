package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"github.com/easyio-sim/easyio/internal/sim"
)

// Process ids of the two clocks in the trace file.
const (
	hostPid    = 1
	virtualPid = 2
)

// requestSample keeps one virtual-clock request span in this many per
// tenant: enough to see queueing in Perfetto without a 100 MB file.
const requestSample = 64

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer records the traced run as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open: host-clock spans around every phase, probe
// and vet step (pid 1, microseconds since the tracer started), and
// virtual-clock request spans and gauge counters of the traced
// repetition (pid 2, microseconds of simulated time). Events stay in
// memory until write. A nil *tracer records nothing, which is how the
// untraced repetitions run.
type tracer struct {
	start  time.Time
	seen   []int64 // completed requests per tenant
	events []traceEvent
}

func newTracer() *tracer {
	t := &tracer{start: time.Now()}
	t.meta("process_name", hostPid, 0, "host clock")
	t.meta("process_name", virtualPid, 0, "virtual clock")
	return t
}

func (t *tracer) meta(kind string, pid, tid int, name string) {
	t.events = append(t.events, traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// span records a host-clock span from begin until now.
func (t *tracer) span(name string, begin time.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Ph: "X", Pid: hostPid, Tid: 1,
		Ts:  float64(begin.Sub(t.start).Nanoseconds()) / 1e3,
		Dur: float64(time.Since(begin).Nanoseconds()) / 1e3,
	})
}

// tenants names the virtual-clock request tracks, one per tenant.
func (t *tracer) tenants(names []string) {
	if t == nil {
		return
	}
	for i, n := range names {
		t.meta("thread_name", virtualPid, i+1, "requests "+n)
	}
	t.seen = make([]int64, len(names))
}

// request records the first of every requestSample completions of a
// tenant as a span from its due time to its completion.
func (t *tracer) request(tenant int, done sim.Time, lat sim.Duration) {
	if t == nil {
		return
	}
	t.seen[tenant]++
	if t.seen[tenant]%requestSample != 1 {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: "request", Ph: "X", Pid: virtualPid, Tid: tenant + 1,
		Ts: float64(done-sim.Time(lat)) / 1e3, Dur: float64(lat) / 1e3,
	})
}

// counter records one gauge sample at virtual time at.
func (t *tracer) counter(name string, at sim.Time, v float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{Name: name, Ph: "C", Ts: float64(at) / 1e3, Pid: virtualPid, Args: map[string]any{"value": v}})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{t.events, "ns"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
