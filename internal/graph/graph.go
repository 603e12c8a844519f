// Package graph provides a serializable adjacency-list graph and
// breadth-first search. apps.BFSFromFile in examples/analytics reads a
// serialized graph from a file, builds it in memory and runs BFS from a
// given vertex. (Figure 10's BFS app charges calibrated compute instead.)
package graph

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"github.com/easyio-sim/easyio/internal/rng"
)

// ErrCorrupt reports malformed serialized input.
var ErrCorrupt = errors.New("graph: corrupt input")

// Graph is a directed graph over vertices [0, N).
type Graph struct {
	adj [][]int32
}

// New creates an empty graph with n vertices.
func New(n int) *Graph { return &Graph{adj: make([][]int32, n)} }

// Len returns the vertex count.
func (g *Graph) Len() int { return len(g.adj) }

// Edges returns the total edge count.
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// AddEdge adds a directed edge u -> v.
func (g *Graph) AddEdge(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
}

// Neighbors returns v's out-neighbours (shared slice; do not mutate).
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// BFS runs breadth-first search from src and returns the distance (in
// hops) to every vertex, -1 for unreachable.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= len(g.adj) {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Marshal serializes the graph: varint vertex count, then per vertex a
// varint degree and delta-encoded neighbour list.
func (g *Graph) Marshal() []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putUv(uint64(len(g.adj)))
	for _, nbrs := range g.adj {
		putUv(uint64(len(nbrs)))
		prev := int32(0)
		for _, v := range nbrs {
			putUv(uint64(uint32(v - prev)))
			prev = v
		}
	}
	return buf
}

// Unmarshal parses a serialized graph. Note: neighbour lists must be
// sorted ascending for the delta encoding; Marshal of a graph built with
// ascending AddEdge order roundtrips.
func Unmarshal(b []byte) (*Graph, error) {
	getUv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	// Every vertex needs at least one byte (its degree) and every edge at
	// least one (its delta), so a count larger than the remaining input is
	// corrupt; vertex IDs are int32.
	nv, ok := getUv()
	if !ok || nv > uint64(len(b)) || nv > math.MaxInt32 {
		return nil, ErrCorrupt
	}
	g := New(int(nv))
	for u := 0; u < int(nv); u++ {
		deg, ok := getUv()
		if !ok || deg > uint64(len(b)) {
			return nil, ErrCorrupt
		}
		prev := int32(0)
		for k := 0; k < int(deg); k++ {
			d, ok := getUv()
			if !ok {
				return nil, ErrCorrupt
			}
			v := prev + int32(uint32(d))
			if v < 0 || v >= int32(nv) {
				return nil, ErrCorrupt
			}
			g.adj[u] = append(g.adj[u], v)
			prev = v
		}
	}
	return g, nil
}

// Random builds a pseudo-random graph with n vertices and approximately
// avgDegree out-edges per vertex (sorted, deduplicated), seeded for
// reproducibility.
func Random(n, avgDegree int, seed uint64) *Graph {
	g := New(n)
	r := rng.New(seed)
	for u := 0; u < n; u++ {
		nbrs := make([]int32, 0, avgDegree)
		for k := 0; k < avgDegree; k++ {
			if v := int32(r.Intn(n)); v != int32(u) {
				nbrs = append(nbrs, v)
			}
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for i, v := range nbrs {
			if i == 0 || nbrs[i-1] != v {
				g.adj[u] = append(g.adj[u], v)
			}
		}
	}
	return g
}
