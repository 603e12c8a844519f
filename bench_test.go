package easyio

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each iteration regenerates the experiment with shortened measurement
// windows (the full-length runs are `go run ./cmd/easyio-bench -exp all`).
// Reported metrics are wall-clock per experiment regeneration; the
// experiment outputs themselves are deterministic in virtual time.

import (
	"io"
	"testing"

	"github.com/easyio-sim/easyio/internal/bench"
	"github.com/easyio-sim/easyio/internal/sim"
)

const (
	benchRawWindow = 2 * sim.Millisecond
	benchFSWindow  = 3 * sim.Millisecond
	benchAppWindow = 25 * sim.Millisecond
)

func BenchmarkTable1AppConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

func BenchmarkFig1LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig1(io.Discard)
	}
}

func BenchmarkFig2MemcpyVsDMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig2(io.Discard, benchRawWindow)
	}
}

func BenchmarkFig3ChannelScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig3(io.Discard, benchRawWindow)
	}
}

func BenchmarkFig4Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig4(io.Discard, benchRawWindow)
	}
}

func BenchmarkFig8SingleThreadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(io.Discard)
	}
}

func BenchmarkFig9ThroughputLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9(io.Discard, benchFSWindow, 42)
	}
}

func BenchmarkFig10Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(io.Discard, benchAppWindow, 42)
	}
}

func BenchmarkFig11Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(io.Discard, benchFSWindow, 42)
	}
}

func BenchmarkFig12Throttling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(io.Discard, 4*sim.Millisecond, 42)
	}
}

func BenchmarkTable2CrashConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !bench.Table2(io.Discard, 60, 42) {
			b.Fatal("crash consistency failure")
		}
	}
}

func BenchmarkAblationDSAMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationDSAMode(io.Discard, benchRawWindow, 42)
	}
}

func BenchmarkAblationPollCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationPollCost(io.Discard, benchFSWindow, 42)
	}
}

func BenchmarkAblationOffloadThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationOffloadThreshold(io.Discard)
	}
}
