package nova

// ZeroSourceSize is the length of the process-wide zero source: it
// covers every in-tree write payload (the largest, an application's
// 6.3 MB output, and the serving layer's 4 MB prefill files).
const ZeroSourceSize = 8 << 20

// zeroSource backs every Zeros slice. Nothing writes it: a write source
// is read-only to every layer (nova stages it into its CoW image, DMA
// descriptors and delegates only read it), so every engine goroutine
// may share it. As an array of bytes it costs no heap, and its pages are
// only ever read.
var zeroSource [ZeroSourceSize]byte

// Zeros returns n zero bytes to write from. Up to ZeroSourceSize the
// slice is a window on the shared zero source, capped at n so an append
// by the caller reallocates instead of writing into it; a larger n gets
// a fresh buffer. Callers must never write into the result.
func Zeros(n int) []byte {
	if n <= ZeroSourceSize {
		return zeroSource[:n:n]
	}
	return make([]byte, n)
}
