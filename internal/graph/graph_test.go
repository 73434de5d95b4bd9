package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHasRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2)
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("edge must be undirected")
	}
	g.AddEdge(0, 2) // duplicate is a no-op
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	g.RemoveEdge(2, 0)
	if g.HasEdge(0, 2) {
		t.Fatal("RemoveEdge failed")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	g.AddEdge(1, 1)
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	got := g.Neighbors(2)
	want := []int{0, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
	if g.Degree(2) != 3 || g.Degree(1) != 0 {
		t.Fatal("Degree wrong")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	edges := g.Edges()
	if len(edges) != 2 || edges[0] != [2]int{0, 2} || edges[1] != [2]int{1, 3} {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestWattsStrogatzContracts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 20, 4
		g := WattsStrogatz(n, k, 0.2, rng)
		// Rewiring preserves the total edge count of the ring lattice.
		return g.EdgeCount() == n*k/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// beta=0 leaves the pure lattice: every vertex has degree exactly k.
	g := WattsStrogatz(12, 4, 0, rand.New(rand.NewSource(2)))
	for v := 0; v < 12; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("lattice degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestEnsureMinDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(15)
	EnsureMinDegree(g, 2, rng)
	for v := 0; v < 15; v++ {
		if g.Degree(v) < 2 {
			t.Fatalf("degree(%d) = %d after EnsureMinDegree(2)", v, g.Degree(v))
		}
	}
}

func TestLocalClustering(t *testing.T) {
	// Triangle plus a pendant vertex.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	if got := localClustering(g, 0); got != 1 {
		t.Fatalf("triangle vertex clustering = %g, want 1", got)
	}
	// Vertex 2 has neighbours {0,1,3}; only (0,1) connected: 1/3.
	if got := localClustering(g, 2); got != 1.0/3 {
		t.Fatalf("clustering(2) = %g, want 1/3", got)
	}
	if got := localClustering(g, 3); got != 0 {
		t.Fatalf("pendant clustering = %g, want 0", got)
	}
}

// localClustering is the clustering coefficient of v: the fraction of pairs
// of v's neighbours that are themselves connected, or 0 for degree < 2.
func localClustering(g *Graph, v int) float64 {
	nbrs := g.Neighbors(v)
	if len(nbrs) < 2 {
		return 0
	}
	var closed int
	for a := 0; a < len(nbrs); a++ {
		for b := a + 1; b < len(nbrs); b++ {
			if g.HasEdge(nbrs[a], nbrs[b]) {
				closed++
			}
		}
	}
	return float64(closed) / float64(len(nbrs)*(len(nbrs)-1)/2)
}

// TestSmallWorldClusteringExceedsER checks the property the LBSN simulator
// picks Watts–Strogatz for: its mean clustering far exceeds that of an
// Erdős–Rényi graph of the same density, whose expected clustering is the
// edge probability p itself.
func TestSmallWorldClusteringExceedsER(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, k := 200, 8
	ws := WattsStrogatz(n, k, 0.1, rng)
	p := float64(2*ws.EdgeCount()) / float64(n*(n-1))
	var sum float64
	for v := 0; v < n; v++ {
		sum += localClustering(ws, v)
	}
	if avg := sum / float64(n); avg <= 2*p {
		t.Fatalf("WS clustering %g should far exceed the ER expectation %g", avg, p)
	}
}

func TestAverageDegree(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if got := g.AverageDegree(); got != 1 {
		t.Fatalf("AverageDegree = %g, want 1", got)
	}
}

// TestNeighborsAllocatesNothing: Neighbors hands out the stored sorted row,
// so the side-information fold's per-user neighbour reads cost no
// allocation.
func TestNeighborsAllocatesNothing(t *testing.T) {
	g := WattsStrogatz(50, 6, 0.3, rand.New(rand.NewSource(4)))
	var sum int
	allocs := testing.AllocsPerRun(20, func() {
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(v) {
				sum += u
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Neighbors allocated %.0f times per sweep, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("the graph has no edges")
	}
}
