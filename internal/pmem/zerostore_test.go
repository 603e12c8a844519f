package pmem

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// TestZeroStoreToAbsentPageStaysAbsent: an all-zero store to pages that
// were never written allocates nothing, still reaches the store observer,
// and reads back as zeros.
func TestZeroStoreToAbsentPageStaysAbsent(t *testing.T) {
	_, d := newDev()
	var observed int
	d.SetDirtyFunc(func(off int64, n int) { observed += n })
	off := int64(5*pageSize + 100)
	d.WriteAt(off, make([]byte, 3*pageSize))
	if len(d.pages) != 0 {
		t.Fatalf("zero store allocated %d pages, want 0", len(d.pages))
	}
	if observed != 3*pageSize {
		t.Fatalf("store observer saw %d bytes, want %d", observed, 3*pageSize)
	}
	got := bytes.Repeat([]byte{0xff}, 3*pageSize)
	d.ReadAt(got, off)
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("zero store to absent pages did not read back as zeros")
	}
}

// TestZeroStoreOverwritesPresentPage: the skip is for absent pages only; a
// zero store over bytes already written must still clear them.
func TestZeroStoreOverwritesPresentPage(t *testing.T) {
	_, d := newDev()
	data := bytes.Repeat([]byte{0xab}, pageSize)
	d.WriteAt(2*pageSize, data)
	d.WriteAt(2*pageSize+64, make([]byte, 128))
	want := bytes.Clone(data)
	clear(want[64 : 64+128])
	got := make([]byte, pageSize)
	d.ReadAt(got, 2*pageSize)
	if !bytes.Equal(got, want) {
		t.Fatal("partial zero store over a present page did not land")
	}
	d.WriteAt(2*pageSize, make([]byte, pageSize))
	d.ReadAt(got, 2*pageSize)
	if !bytes.Equal(got, make([]byte, pageSize)) {
		t.Fatal("full-page zero store over a present page did not land")
	}
}

// TestZeroStoreCrashImage: under persistence tracking, every store of a
// mixed zero/non-zero stream is recorded, and each crash image matches a
// flat byte-array model that applies the same records to the same base.
func TestZeroStoreCrashImage(t *testing.T) {
	const span = 8 * pageSize
	_, d := newDev()
	model := make([]byte, span)

	base := bytes.Repeat([]byte{7}, pageSize)
	d.WriteAt(pageSize, base)
	copy(model[pageSize:], base)
	d.EnableTracking()

	g := rng.New(9)
	const stores = 64
	for i := 0; i < stores; i++ {
		n := 1 + g.Intn(2*pageSize)
		off := g.Int63n(span - int64(n))
		b := make([]byte, n)
		if g.Intn(2) == 0 {
			g.Bytes(b)
		}
		d.WriteAt(off, b)
		if g.Intn(8) == 0 {
			d.Fence()
		}
	}
	recs := d.Records()
	if len(recs) != stores {
		t.Fatalf("tracked %d records, want %d", len(recs), stores)
	}

	for _, applied := range [][]int{nil, {0, 3, 5}, evens(stores), allOf(stores)} {
		want := bytes.Clone(model)
		for _, i := range applied {
			copy(want[recs[i].Off:], recs[i].Data)
		}
		got := make([]byte, span)
		d.CrashImage(applied).ReadAt(got, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("crash image with %d applied records differs from the model", len(applied))
		}
	}
	live := make([]byte, span)
	d.ReadAt(live, 0)
	want := bytes.Clone(model)
	for _, r := range recs {
		copy(want[r.Off:], r.Data)
	}
	if !bytes.Equal(live, want) {
		t.Fatal("live device differs from the model")
	}
}

func evens(n int) []int {
	var out []int
	for i := 0; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
