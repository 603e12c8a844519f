package nova

import "testing"

// TestZerosShareOneCappedBlock: up to ZeroSourceSize, Zeros is a window
// on the one shared block with its capacity capped at n, so an append
// reallocates instead of writing into the block; above it, a fresh
// buffer of n zero bytes that aliases nothing.
func TestZerosShareOneCappedBlock(t *testing.T) {
	for _, n := range []int{0, 1, 4 << 10, 1 << 20, ZeroSourceSize} {
		z := Zeros(n)
		if len(z) != n || cap(z) != n {
			t.Fatalf("Zeros(%d): len %d cap %d, want both %d", n, len(z), cap(z), n)
		}
		if n > 0 && &z[0] != &zeroSource[0] {
			t.Fatalf("Zeros(%d) is not a window on the shared block", n)
		}
	}
	z := append(Zeros(16), 0xff)
	if zeroSource[16] != 0 || &z[0] == &zeroSource[0] {
		t.Fatal("append to a Zeros slice wrote into the shared block")
	}

	big := Zeros(ZeroSourceSize + 1)
	if len(big) != ZeroSourceSize+1 || &big[0] == &zeroSource[0] {
		t.Fatal("Zeros above ZeroSourceSize did not return a fresh buffer")
	}
	for i, b := range big {
		if b != 0 {
			t.Fatalf("Zeros fallback byte %d is %#x", i, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Zeros(ZeroSourceSize) }); n != 0 {
		t.Fatalf("Zeros within the shared block allocates %v times per call", n)
	}
}
