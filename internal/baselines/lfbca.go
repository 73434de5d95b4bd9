package baselines

import (
	"fmt"
	"sync"
)

// LFBCA (Wang et al., SIGSPATIAL 2013) is the location-friendship
// bookmark-coloring algorithm: a personalized-PageRank-style random walk
// with restart over a heterogeneous graph whose nodes are users and POIs.
// Following the published construction, the user-user edges combine the
// social friendship graph with *location friends* — pairs of users whose
// check-in sets overlap geographically — and user-POI edges carry the
// user's visit counts. The stationary visiting probability of POI j from
// user i is the recommendation score; the time index is ignored, as in the
// original model.
type LFBCA struct {
	// Alpha is the walk continuation probability (1−restart).
	Alpha float64
	// FriendWeight scales social user-user edges relative to check-in edges.
	FriendWeight float64
	// LocationWeight scales location-friend edges per shared POI.
	LocationWeight float64
	// MinShared is the number of distinct shared POIs required before two
	// users count as location friends.
	MinShared int
	// Iterations bounds the power iteration.
	Iterations int

	numUsers, numPOIs int
	adj               [][]weightedEdge
	cacheMu           sync.Mutex // Score runs under eval's parallel ranking workers
	cache             map[int][]float64
	fit               bool
}

type weightedEdge struct {
	to int
	w  float64
}

// NewLFBCA returns the LFBCA baseline with the standard damping 0.85.
func NewLFBCA() *LFBCA {
	return &LFBCA{Alpha: 0.85, FriendWeight: 1.0, LocationWeight: 0.3, MinShared: 2, Iterations: 25}
}

// Name implements Recommender.
func (l *LFBCA) Name() string { return "LFBCA" }

// Fit implements Recommender by building the heterogeneous graph. Nodes
// 0..I-1 are users; nodes I..I+J-1 are POIs.
func (l *LFBCA) Fit(ctx *Context) error {
	if ctx.Social == nil {
		return fmt.Errorf("baselines: LFBCA needs the social graph")
	}
	I, J := ctx.Train.DimI, ctx.Train.DimJ
	l.numUsers, l.numPOIs = I, J
	l.adj = make([][]weightedEdge, I+J)
	add := func(a, b int, w float64) {
		l.adj[a] = append(l.adj[a], weightedEdge{to: b, w: w})
		l.adj[b] = append(l.adj[b], weightedEdge{to: a, w: w})
	}
	for _, e := range ctx.Social.Edges() {
		add(e[0], e[1], l.FriendWeight)
	}
	// User-POI edges, one per distinct (user, POI) pair, weighted by the
	// number of time units the user visited the POI in.
	type pair struct{ i, j int }
	counts := make(map[pair]int)
	visited := make([]map[int]struct{}, I)
	for i := range visited {
		visited[i] = make(map[int]struct{})
	}
	for _, e := range ctx.Train.Entries() {
		counts[pair{e.I, e.J}]++
		visited[e.I][e.J] = struct{}{}
	}
	for p, c := range counts {
		add(p.i, I+p.j, float64(c))
	}
	// Location friends: users sharing at least MinShared distinct POIs,
	// found through per-POI visitor lists so the cost is proportional to
	// co-visitation rather than all user pairs.
	if l.LocationWeight > 0 && l.MinShared > 0 {
		visitors := make([][]int, J)
		for i, set := range visited {
			for j := range set {
				visitors[j] = append(visitors[j], i)
			}
		}
		shared := make(map[pair]int)
		for _, vs := range visitors {
			for a := 0; a < len(vs); a++ {
				for b := a + 1; b < len(vs); b++ {
					shared[pair{vs[a], vs[b]}]++
				}
			}
		}
		for p, c := range shared {
			if c >= l.MinShared && !ctx.Social.HasEdge(p.i, p.j) {
				add(p.i, p.j, l.LocationWeight*float64(c))
			}
		}
	}
	l.cache = make(map[int][]float64)
	l.fit = true
	return nil
}

// ppr runs the power iteration for one user and caches the result.
func (l *LFBCA) ppr(i int) []float64 {
	l.cacheMu.Lock()
	v, ok := l.cache[i]
	l.cacheMu.Unlock()
	if ok {
		return v
	}
	n := len(l.adj)
	outW := make([]float64, n)
	for u, edges := range l.adj {
		for _, e := range edges {
			outW[u] += e.w
		}
	}
	p := make([]float64, n)
	next := make([]float64, n)
	p[i] = 1
	for it := 0; it < l.Iterations; it++ {
		for u := range next {
			next[u] = 0
		}
		next[i] += 1 - l.Alpha
		for u, mass := range p {
			if mass == 0 || outW[u] == 0 {
				// Dangling mass restarts.
				next[i] += l.Alpha * mass
				continue
			}
			scale := l.Alpha * mass / outW[u]
			for _, e := range l.adj[u] {
				next[e.to] += scale * e.w
			}
		}
		p, next = next, p
	}
	l.cacheMu.Lock()
	l.cache[i] = p
	l.cacheMu.Unlock()
	return p
}

// Score implements Recommender; the time index is ignored.
func (l *LFBCA) Score(i, j, _ int) float64 {
	if !l.fit {
		panic("baselines: LFBCA.Score before Fit")
	}
	return l.ppr(i)[l.numUsers+j]
}
