package bench

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/sim"
)

// The drivers are exercised end-to-end with tiny windows; these tests
// assert the paper's headline *shapes*, not absolute values, so they are
// regression guards for the calibration.

func TestInstanceConstruction(t *testing.T) {
	for _, sys := range append(AllSystems(), SysNaive) {
		inst, err := NewInstance(sys, 2, InstanceOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if inst.FS == nil || inst.RT == nil {
			t.Fatalf("%s: incomplete instance", sys)
		}
		if sys == SysEasyIO && inst.UtPerCore != 2 {
			t.Fatalf("EasyIO uthread factor = %d", inst.UtPerCore)
		}
		inst.Close()
	}
}

func TestFig8Shapes(t *testing.T) {
	// EasyIO must have the lowest 64K write latency of all systems, and
	// its CPU share must be well below 1.
	var lats []sim.Duration
	for _, sys := range AllSystems() {
		lat, _ := measureOpLatency(sys, "write", 64<<10)
		lats = append(lats, lat)
	}
	easy := lats[3]
	for i, sys := range AllSystems()[:3] {
		if easy >= lats[i] {
			t.Fatalf("EasyIO 64K write (%v) not below %s (%v)", easy, sys, lats[i])
		}
	}
	_, cpu := measureOpLatency(SysEasyIO, "write", 64<<10)
	share := float64(cpu) / float64(easy)
	if share > 0.55 {
		t.Fatalf("EasyIO-CPU share = %.2f, want < 0.55 (paper: 0.37)", share)
	}
}

func TestFig9PanelShape(t *testing.T) {
	// Write 64K: EasyIO peaks with drastically fewer cores than NOVA.
	p := RunFig9Panel(fxmark.DWAL, 64<<10, 3*sim.Millisecond, 7)
	if p.CoresAtPeak[SysEasyIO] >= p.CoresAtPeak[SysNOVA] {
		t.Fatalf("cores at peak: EasyIO %d vs NOVA %d", p.CoresAtPeak[SysEasyIO], p.CoresAtPeak[SysNOVA])
	}
	if p.CoresAtPeak[SysEasyIO] > 4 {
		t.Fatalf("EasyIO needed %d cores at 64K writes (paper: 2)", p.CoresAtPeak[SysEasyIO])
	}
	if p.Peak[SysEasyIO].Thr < p.Peak[SysNOVA].Thr {
		t.Fatal("EasyIO peak write throughput below NOVA")
	}
}

// TestFig12Shape checks §6.4.3's claim on Figure 12's printed table: only
// DMA throttling shields the web server from the colocated GC's bulk
// writes (CPU throttling leaves its DMA bandwidth untouched), and no mode
// moves the latency outside the GC window by more than 10%.
func TestFig12Shape(t *testing.T) {
	for _, seed := range []uint64{7, 42} {
		var sb strings.Builder
		Fig12(&sb, 4*sim.Millisecond, seed)
		out := sb.String()
		// mode -> {idle-mean, gc-mean} in µs.
		rows := map[string][2]float64{}
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) != 5 || !strings.HasSuffix(f[0], "-Throttling") {
				continue
			}
			idle, err1 := strconv.ParseFloat(f[1], 64)
			gc, err2 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: bad row %q", seed, line)
			}
			rows[f[0]] = [2]float64{idle, gc}
		}
		no, cpu, dma := rows["No-Throttling"], rows["CPU-Throttling"], rows["DMA-Throttling"]
		if len(rows) != 3 || no[1] == 0 {
			t.Fatalf("seed %d: want three modes with GC-window samples:\n%s", seed, out)
		}
		if dma[1] > 0.8*no[1] {
			t.Errorf("seed %d: DMA-Throttling gc-mean %.2f us, want <= 0.8x No-Throttling's %.2f", seed, dma[1], no[1])
		}
		if cpu[1] < 0.9*no[1] {
			t.Errorf("seed %d: CPU-Throttling gc-mean %.2f us, want >= 0.9x No-Throttling's %.2f", seed, cpu[1], no[1])
		}
		for mode, r := range rows {
			if math.Abs(r[0]-no[0]) > 0.1*no[0] {
				t.Errorf("seed %d: %s idle-mean %.2f us not within 10%% of No-Throttling's %.2f", seed, mode, r[0], no[0])
			}
		}
	}
}

func TestTable2QuickAllPass(t *testing.T) {
	var sb strings.Builder
	if !Table2(&sb, 40, 42) {
		t.Fatalf("crash consistency failures:\n%s", sb.String())
	}
}

func TestAblationsRun(t *testing.T) {
	var sb strings.Builder
	AblationDSAMode(&sb, 2*sim.Millisecond, 7)
	AblationOffloadThreshold(&sb)
	if !strings.Contains(sb.String(), "DSA per-app WQ") {
		t.Fatal("ablation output incomplete")
	}
}

// TestInstanceSetupAllocBytes: set-up costs what the device holds, not
// its capacity. Each system's instance at the default 8 GB device and
// 16,384 inodes allocates under 64 KiB of heap; a capacity-sized format,
// inode-table scan, allocator bitmap or dense inode pointer table (128 KB)
// each cost more than that alone.
func TestInstanceSetupAllocBytes(t *testing.T) {
	const runs = 4
	for _, sys := range AllSystems() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			inst, err := NewInstance(sys, 2, InstanceOptions{Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", sys, err)
			}
			inst.Close()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
			t.Errorf("%s: NewInstance allocates %d bytes, want under %d", sys, per, 64<<10)
		} else {
			t.Logf("%s: NewInstance allocates %d bytes", sys, per)
		}
	}
}

// BenchmarkNewInstance measures one system's instance set-up at the
// default 8 GB device and 16,384 inodes: format, mount and runtime.
func BenchmarkNewInstance(b *testing.B) {
	for _, sys := range AllSystems() {
		b.Run(string(sys), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := NewInstance(sys, 2, InstanceOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				inst.Close()
			}
		})
	}
}
