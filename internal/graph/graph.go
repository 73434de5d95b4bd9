// Package graph implements the undirected social graph of an LBSN: an
// adjacency-list structure with neighbour queries and degree statistics, plus
// the generators the LBSN simulator uses to wire friendships (Watts–Strogatz,
// minimum-degree repair, preferential attachment for arriving users).
package graph

import (
	"fmt"
	"slices"
)

// Graph is a simple undirected graph over vertices 0..N-1 with no self-loops
// or parallel edges. The zero Graph is unusable; construct with New.
type Graph struct {
	n   int
	adj [][]int // per vertex, its neighbours in ascending order
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
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
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
}

// insertSorted adds v to the ascending row unless it is already there.
func insertSorted(row []int, v int) []int {
	if i, found := slices.BinarySearch(row, v); !found {
		row = slices.Insert(row, i, v)
	}
	return row
}

// deleteSorted removes v from the ascending row if it is there.
func deleteSorted(row []int, v int) []int {
	if i, found := slices.BinarySearch(row, v); found {
		row = slices.Delete(row, i, i+1)
	}
	return row
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	g.adj[u] = deleteSorted(g.adj[u], v)
	g.adj[v] = deleteSorted(g.adj[v], u)
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

// Neighbors returns the neighbours of v in ascending order. The slice is the
// graph's own row: it is read-only, and valid until the next edge change at
// v. A caller that reorders it works on a slices.Clone.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return g.adj[v]
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
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// AverageDegree returns the mean vertex degree.
func (g *Graph) AverageDegree() float64 {
	return 2 * float64(g.EdgeCount()) / float64(g.n)
}
