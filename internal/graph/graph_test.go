package graph

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBFSLine(t *testing.T) {
	g := line(10)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != int32(i) {
			t.Fatalf("dist[%d] = %d", i, d)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[1] != 1 || dist[2] != -1 || dist[4] != -1 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestBFSCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	dist := g.BFS(0)
	want := []int32{0, 1, 2, 3}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v", dist)
		}
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := Random(200, 8, seed)
		g2, err := Unmarshal(g.Marshal())
		if err != nil {
			return false
		}
		if g2.Len() != g.Len() || g2.Edges() != g.Edges() {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			a, b := g.Neighbors(u), g2.Neighbors(u)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	uvarints := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"vertex count 1<<62", uvarints(1 << 62)},
		{"vertex count 1<<63", uvarints(1 << 63)},
		{"vertex count 1<<40", uvarints(1 << 40)},
		{"vertex count 1<<31", uvarints(1<<31, 0, 0)},
		{"vertex count past input", uvarints(3, 0, 0)},
		{"degree past input", uvarints(2, 1<<40, 0)},
		{"neighbour out of range", uvarints(2, 1, 2, 0)},
	}
	for _, c := range cases {
		if _, err := Unmarshal(c.in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	g := Random(50, 4, 1)
	b := g.Marshal()
	for cut := 0; cut < len(b); cut += 11 {
		if _, err := Unmarshal(b[:cut]); err == nil && cut < len(b)-1 {
			// A prefix can only be valid if it happens to end exactly at
			// a vertex boundary with zero remaining degrees — the varint
			// format makes full validity of strict prefixes impossible
			// here because the vertex count stays fixed.
			t.Fatalf("truncated input at %d accepted", cut)
		}
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := line(3)
	dist := g.BFS(99)
	for _, d := range dist {
		if d != -1 {
			t.Fatal("out-of-range source produced distances")
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(100, 5, 7)
	b := Random(100, 5, 7)
	if a.Edges() != b.Edges() {
		t.Fatal("Random not deterministic")
	}
}
