package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Fork(1)
	c2 := r.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked streams identical")
	}
	// Forking again with the same id from unchanged parent state replays.
	r2 := New(7)
	c1b := r2.Fork(1)
	if c1b.Uint64() != New(7).Fork(1).Uint64() {
		t.Fatal("fork not deterministic")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("exp mean = %v, want ~5", mean)
	}
}

func TestBytesFills(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		b := make([]byte, n)
		New(9).Bytes(b)
		if n >= 16 {
			zero := 0
			for _, v := range b {
				if v == 0 {
					zero++
				}
			}
			if zero == n {
				t.Fatalf("Bytes left buffer all-zero for n=%d", n)
			}
		}
	}
}
