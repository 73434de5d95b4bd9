package graph

import (
	"fmt"
	"math/rand"
)

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbours (k must be even and < n), with
// each lattice edge rewired to a random endpoint with probability beta.
// Social networks in LBSNs exhibit exactly this high-clustering,
// short-path-length structure, so the LBSN simulator defaults to it.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *Graph {
	if k%2 != 0 || k <= 0 || k >= n {
		panic(fmt.Sprintf("graph: WattsStrogatz k=%d must be even and in (0,%d)", k, n))
	}
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("graph: WattsStrogatz beta=%g out of [0,1]", beta))
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for step := 1; step <= k/2; step++ {
			g.AddEdge(u, (u+step)%n)
		}
	}
	// Rewire each original lattice edge (u, u+step) with probability beta.
	for u := 0; u < n; u++ {
		for step := 1; step <= k/2; step++ {
			v := (u + step) % n
			if rng.Float64() >= beta {
				continue
			}
			if g.Degree(u) >= n-1 {
				continue // u already connected to everyone
			}
			w := rng.Intn(n)
			for w == u || g.HasEdge(u, w) {
				w = rng.Intn(n)
			}
			g.RemoveEdge(u, v)
			g.AddEdge(u, w)
		}
	}
	return g
}

// EnsureMinDegree adds random edges until every vertex has at least minDeg
// neighbours, mirroring the paper's preprocessing step of keeping only users
// with at least one friend (instead of dropping users we connect them, which
// keeps tensor indices dense).
func EnsureMinDegree(g *Graph, minDeg int, rng *rand.Rand) {
	n := g.N()
	if minDeg >= n {
		panic(fmt.Sprintf("graph: EnsureMinDegree %d impossible for %d vertices", minDeg, n))
	}
	for v := 0; v < n; v++ {
		for g.Degree(v) < minDeg {
			u := rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
	}
}
