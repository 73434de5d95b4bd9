package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// AddVertices appends k isolated vertices and returns the id of the first new
// one. Existing edges are untouched, so a grown graph is a strict superset of
// the old one — the invariant open-world growth relies on.
func (g *Graph) AddVertices(k int) int {
	if k < 0 {
		panic(fmt.Sprintf("graph: cannot add %d vertices", k))
	}
	first := g.n
	g.adj = append(g.adj, make([][]int, k)...)
	g.n += k
	return first
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	for v, nbrs := range g.adj {
		out.adj[v] = slices.Clone(nbrs)
	}
	return out
}

// PreferentialAttach wires vertex v to up to m distinct existing vertices,
// chosen with probability proportional to degree+1 — the Barabási–Albert
// arrival rule, with the +1 keeping isolated vertices reachable. Vertices
// already adjacent to v (and v itself) are excluded. It returns the sorted
// new neighbour ids and is deterministic under rng: candidates are scanned in
// vertex order.
func (g *Graph) PreferentialAttach(v, m int, rng *rand.Rand) []int {
	g.checkVertex(v)
	picked := make([]int, 0, m)
	for len(picked) < m {
		total := 0
		for u := 0; u < g.n; u++ {
			if u == v || g.HasEdge(u, v) {
				continue
			}
			total += len(g.adj[u]) + 1
		}
		if total == 0 {
			break
		}
		x := rng.Intn(total)
		for u := 0; u < g.n; u++ {
			if u == v || g.HasEdge(u, v) {
				continue
			}
			x -= len(g.adj[u]) + 1
			if x < 0 {
				g.AddEdge(u, v)
				picked = append(picked, u)
				break
			}
		}
	}
	sort.Ints(picked)
	return picked
}
