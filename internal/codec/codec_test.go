package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/easyio-sim/easyio/internal/rng"
)

func TestRoundtripSimple(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello hello hello hello"),
		bytes.Repeat([]byte("abcd"), 1000),
		make([]byte, 4096), // zeros: highly compressible
	}
	for _, src := range cases {
		enc := Compress(nil, src)
		dec, err := Decompress(enc)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("roundtrip mismatch for %d bytes", len(src))
		}
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox "), 500)
	enc := Compress(nil, src)
	if len(enc) > len(src)/4 {
		t.Fatalf("ratio too poor: %d -> %d", len(src), len(enc))
	}
}

func TestRandomDataExpandsBounded(t *testing.T) {
	src := make([]byte, 10000)
	rng.New(1).Bytes(src)
	enc := Compress(nil, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("exceeded MaxEncodedLen: %d > %d", len(enc), MaxEncodedLen(len(src)))
	}
	dec, err := Decompress(enc)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("random roundtrip failed")
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		g := rng.New(seed)
		n := g.Intn(20000)
		src := make([]byte, n)
		if structured {
			// Repetitive source with varying period.
			period := 1 + g.Intn(64)
			pat := make([]byte, period)
			g.Bytes(pat)
			for i := range src {
				src[i] = pat[i%period]
			}
		} else {
			g.Bytes(src)
		}
		dec, err := Decompress(Compress(nil, src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// uvarints concatenates the uvarint encodings of vs.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestCorruptInputs(t *testing.T) {
	lit := func(s string) []byte { return append(uvarints(uint64(len(s))<<1|tagLiteral), s...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", []byte{}},
		// 10-byte inputs whose length header does not fit an allocation.
		{"header 1<<62", cat(uvarints(1<<62), []byte{0})},
		{"header 1<<63", uvarints(1 << 63)},
		{"literal past header", cat(uvarints(2), lit("abcd"))},
		{"copy past header", cat(uvarints(8), lit("abcd"), uvarints(1<<24<<1|tagCopy, 1))},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decompress(c.in)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		// A corrupt header must not buy memory: nothing past it is decoded.
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", c.name, n)
		}
	}
	src := bytes.Repeat([]byte("xyz"), 100)
	enc := Compress(nil, src)
	// Truncations must error, never panic.
	for cut := 1; cut < len(enc); cut += 7 {
		if dec, err := Decompress(enc[:cut]); err == nil && bytes.Equal(dec, src) {
			t.Fatalf("truncated input at %d decoded fully", cut)
		}
	}
}
