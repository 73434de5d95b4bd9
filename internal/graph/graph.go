// Package graph implements the undirected social graph of an LBSN: an
// adjacency-list structure with neighbour queries and degree statistics, plus
// the generators the LBSN simulator uses to wire friendships (Watts–Strogatz,
// minimum-degree repair, preferential attachment for arriving users).
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..N-1 with no self-loops
// or parallel edges. The zero Graph is unusable; construct with New.
type Graph struct {
	n   int
	adj []map[int]struct{}
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	return &Graph{n: n, adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected;
// duplicate insertions are no-ops.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	_, ok := g.adj[u][v]
	return ok
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// Neighbors returns the sorted neighbour list of v.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	var total int
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Edges returns every undirected edge once, as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// AverageDegree returns the mean vertex degree.
func (g *Graph) AverageDegree() float64 {
	return 2 * float64(g.EdgeCount()) / float64(g.n)
}
