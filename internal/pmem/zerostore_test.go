package pmem

import (
	"bytes"
	"testing"

	"github.com/easyio-sim/easyio/internal/rng"
)

// TestZeroStoreToAbsentPageStaysAbsent: an all-zero store to pages that
// were never written allocates nothing and reads back as zeros.
func TestZeroStoreToAbsentPageStaysAbsent(t *testing.T) {
	_, d := newDev()
	off := int64(5*pageSize + 100)
	d.WriteAt(off, make([]byte, 3*pageSize))
	if len(d.pages) != 0 {
		t.Fatalf("zero store allocated %d pages, want 0", len(d.pages))
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
// mixed stream of non-zero stores, all-zero stores and ZeroAt stores is
// recorded as one record, and each crash image matches a flat byte-array
// model that applies the same records to the same base.
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
		switch g.Intn(3) {
		case 0:
			g.Bytes(b)
			d.WriteAt(off, b)
		case 1:
			d.WriteAt(off, b)
		case 2:
			d.ZeroAt(off, n)
		}
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

// TestZeroAtAbsentPagesStayAbsent: ZeroAt over pages never written
// allocates nothing and reads back as zeros.
func TestZeroAtAbsentPagesStayAbsent(t *testing.T) {
	_, d := newDev()
	off, n := int64(5*pageSize+100), 3*pageSize
	d.ZeroAt(off, n)
	if len(d.pages) != 0 {
		t.Fatalf("ZeroAt allocated %d pages, want 0", len(d.pages))
	}
	got := bytes.Repeat([]byte{0xff}, n)
	d.ReadAt(got, off)
	if !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("ZeroAt over absent pages did not read back as zeros")
	}
}

// TestZeroAtClearsOnlyItsRange: on present pages ZeroAt clears exactly
// [off, off+n), across page boundaries, and leaves the absent pages inside
// the range absent.
func TestZeroAtClearsOnlyItsRange(t *testing.T) {
	_, d := newDev()
	const span = 6 * pageSize
	model := make([]byte, span)
	data := bytes.Repeat([]byte{0xab}, 2*pageSize)
	d.WriteAt(pageSize, data) // pages 1 and 2
	d.WriteAt(4*pageSize, data[:pageSize])
	copy(model[pageSize:], data)
	copy(model[4*pageSize:], data[:pageSize])

	off, n := int64(pageSize+300), 3*pageSize+500 // pages 1..4, page 3 absent
	d.ZeroAt(off, n)
	clear(model[off : off+int64(n)])
	got := make([]byte, span)
	d.ReadAt(got, 0)
	if !bytes.Equal(got, model) {
		t.Fatal("ZeroAt over present pages differs from the model")
	}
	for pg, want := range []bool{false, true, true, false, true, false} {
		if has := d.pages[int64(pg)] != nil; has != want {
			t.Fatalf("page %d present=%v after ZeroAt, want %v", pg, has, want)
		}
	}
}

// TestZeroAtTrackedRecord: under tracking ZeroAt is one all-zero record of
// n bytes at off, and a crash image that applies it clears the range.
func TestZeroAtTrackedRecord(t *testing.T) {
	_, d := newDev()
	d.WriteAt(0, bytes.Repeat([]byte{9}, 3*pageSize))
	d.EnableTracking()
	off, n := int64(pageSize-10), pageSize+20
	d.ZeroAt(off, n)
	recs := d.Records()
	if len(recs) != 1 || recs[0].Off != off || !bytes.Equal(recs[0].Data, make([]byte, n)) {
		t.Fatalf("ZeroAt tracked %d records (first %+v), want one all-zero record of %d bytes at %d", len(recs), recs, n, off)
	}
	want := bytes.Repeat([]byte{9}, 3*pageSize)
	got := make([]byte, len(want))
	d.CrashImage(nil).ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("crash image without the record differs from the base")
	}
	clear(want[off : off+int64(n)])
	d.CrashImage([]int{0}).ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("crash image with the ZeroAt record did not clear its range")
	}
}

// TestAbsent: the range query is true until any byte of the range has a
// backing page, including a range that crosses a page boundary, and it
// stays true for a zero store to absent pages.
func TestAbsent(t *testing.T) {
	_, d := newDev()
	off, n := int64(3*pageSize-8), 16 // last 8 bytes of page 2, first 8 of page 3
	if !d.Absent(off, n) || !d.Absent(off, 0) {
		t.Fatal("fresh device reports a backed range")
	}
	d.WriteAt(off, make([]byte, n))
	d.ZeroAt(off, n)
	if !d.Absent(off, n) {
		t.Fatal("zero stores to absent pages backed the range")
	}
	d.WriteAt(off+int64(n), []byte{1}) // page 3, just past the range
	if d.Absent(off, n) {
		t.Fatal("range crossing into a present page reported absent")
	}
	if !d.Absent(off, 8) {
		t.Fatal("range on page 2 alone reported present")
	}
	d.WriteAt(2*pageSize, []byte{1}) // page 2, before the range
	if d.Absent(off, 8) {
		t.Fatal("range on a present page reported absent")
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
