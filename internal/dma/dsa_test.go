package dma

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/easyio-sim/easyio/internal/perfmodel"
	"github.com/easyio-sim/easyio/internal/pmem"
	"github.com/easyio-sim/easyio/internal/sim"
)

func newDSA(t *testing.T, priorities []int, pes int) (*sim.Engine, *pmem.Device, *Engine) {
	t.Helper()
	se := sim.NewEngine()
	dev := pmem.New(se, perfmodel.System(), 1<<30)
	return se, dev, NewDSA(dev, 0, priorities, pes, testCBBase)
}

func TestDSAWriteCompletesAndLands(t *testing.T) {
	se, dev, d := newDSA(t, []int{1, 1}, 2)
	data := []byte("via work queue")
	done := false
	d.Channel(0).Submit(&Desc{Write: true, PMOff: 1 << 20, Buf: data,
		OnComplete: func(sn uint64) { done = sn == 1 }})
	se.Run()
	if !done || d.Channel(0).DurableSN() != 1 {
		t.Fatalf("done=%v sn=%d", done, d.Channel(0).DurableSN())
	}
	got := make([]byte, len(data))
	dev.ReadAt(got, 1<<20)
	if !bytes.Equal(got, data) {
		t.Fatal("payload missing")
	}
}

func TestDSAWQsProceedIndependently(t *testing.T) {
	// Unlike a shared I/OAT channel, a bulk descriptor on WQ0 does not
	// head-of-line block WQ1 when PEs are available.
	se, _, d := newDSA(t, []int{1, 1}, 2)
	var bulkDone, smallDone sim.Time
	d.Channel(0).Submit(&Desc{Write: true, PMOff: 0, Size: 2 << 20,
		OnComplete: func(uint64) { bulkDone = se.Now() }})
	d.Channel(1).Submit(&Desc{Write: true, PMOff: 4 << 20, Size: 16 << 10,
		OnComplete: func(uint64) { smallDone = se.Now() }})
	se.Run()
	if smallDone >= bulkDone {
		t.Fatalf("small WQ blocked behind bulk: %v vs %v", smallDone, bulkDone)
	}
}

func TestDSAPriorityArbitration(t *testing.T) {
	// One PE, two WQs: the high-priority WQ's descriptors dispatch first
	// even when submitted later.
	se, _, d := newDSA(t, []int{1, 10}, 1)
	var order []int
	// Occupy the PE so both queues build up.
	d.Channel(0).Submit(&Desc{Write: true, Size: 64 << 10})
	for i := 0; i < 3; i++ {
		d.Channel(0).Submit(&Desc{Write: true, Size: 4 << 10,
			OnComplete: func(uint64) { order = append(order, 0) }})
	}
	for i := 0; i < 3; i++ {
		d.Channel(1).Submit(&Desc{Write: true, Size: 4 << 10,
			OnComplete: func(uint64) { order = append(order, 1) }})
	}
	se.Run()
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// In-order-per-WQ + strict priority: WQ1 interleaves ahead. The first
	// three completions after the blocker must include all of WQ1's.
	wq1First := 0
	for _, v := range order[:3] {
		if v == 1 {
			wq1First++
		}
	}
	if wq1First < 3 {
		t.Fatalf("high-priority WQ not favored: %v", order)
	}
}

func TestDSASNOrderingPerWQ(t *testing.T) {
	se, _, d := newDSA(t, []int{1}, 4)
	var sns []uint64
	for i := 0; i < 5; i++ {
		d.Channel(0).Submit(&Desc{Write: true, PMOff: int64(i) * 8192, Size: 4096,
			OnComplete: func(sn uint64) { sns = append(sns, sn) }})
	}
	se.Run()
	for i, sn := range sns {
		if sn != uint64(i+1) {
			t.Fatalf("out-of-order completion: %v", sns)
		}
	}
	if d.Channel(0).DurableSN() != 5 {
		t.Fatalf("durable = %d", d.Channel(0).DurableSN())
	}
}

func TestDSASuspendedQueueYieldsPE(t *testing.T) {
	// One PE, two WQs: suspending WQ0 while its descriptor waits out the
	// startup delay returns the PE, so WQ1's descriptor runs first; WQ0's
	// completes after Resume with its original SN.
	se, _, d := newDSA(t, []int{1, 1}, 1)
	var order []int
	var sn0 uint64
	d.Channel(0).Submit(&Desc{Write: true, Size: 4 << 10,
		OnComplete: func(sn uint64) { order = append(order, 0); sn0 = sn }})
	d.Channel(1).Submit(&Desc{Write: true, Size: 4 << 10,
		OnComplete: func(uint64) { order = append(order, 1) }})
	d.Channel(0).Suspend()
	se.Run()
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("suspended WQ0 kept the PE: order = %v", order)
	}
	d.Channel(0).Resume()
	se.Run()
	if len(order) != 2 || order[1] != 0 {
		t.Fatalf("order = %v", order)
	}
	if sn0 != 1 || d.Channel(0).DurableSN() != 1 {
		t.Fatalf("WQ0 sn = %d, durable = %d", sn0, d.Channel(0).DurableSN())
	}
}

func TestDSACompletionSubmitKeepsPriority(t *testing.T) {
	// The PE a completion frees goes to the highest-priority waiting WQ,
	// even when the completion callback submits to its own lower-priority
	// WQ first.
	se, _, d := newDSA(t, []int{1, 10}, 1)
	var order []string
	d.Channel(0).Submit(&Desc{Write: true, Size: 4 << 10, OnComplete: func(uint64) {
		order = append(order, "blocker")
		d.Channel(0).Submit(&Desc{Write: true, Size: 4 << 10,
			OnComplete: func(uint64) { order = append(order, "low") }})
	}})
	d.Channel(1).Submit(&Desc{Write: true, Size: 4 << 10,
		OnComplete: func(uint64) { order = append(order, "high") }})
	se.Run()
	if got := fmt.Sprint(order); got != "[blocker high low]" {
		t.Fatalf("order = %s", got)
	}
}
