// Package baselines implements every comparison model of the paper's Table I
// from scratch: the classical tensor factorizations (CP-ALS, Tucker-HOOI,
// P-Tucker), the neural tensor models (NCF, NTM, CoSTCo), the sequential
// spatio-temporal recommenders (STRNN, STGN, STAN), the graph-based LFBCA,
// and the matrix-completion methods (PureSVD, MCCO). Each model implements
// Recommender and is evaluated by internal/eval under the same ranking
// protocol as TCSS.
package baselines

import (
	"fmt"
	"sort"

	"tcss/internal/geo"
	"tcss/internal/graph"
	"tcss/internal/tensor"
)

// Context carries everything a baseline may need to fit: the observed
// training tensor, the social graph, POI distances, and the model rank. The
// derived fields (sequences, user-POI matrix) are built lazily from the
// training tensor so no test information can leak in.
type Context struct {
	Train  *tensor.COO
	Social *graph.Graph
	Dist   *geo.DistanceMatrix
	Rank   int
	Epochs int
	Seed   int64

	// Counts optionally carries the training cells with their raw check-in
	// multiplicities instead of binary indicators. Models that fit observed
	// entries only (P-Tucker) are degenerate on an all-ones tensor — every
	// observed cell can be explained by a constant — so they use Counts
	// when available. Must cover exactly the cells of Train.
	Counts *tensor.COO

	seqCache [][]Visit
}

// ObservedValues returns Counts when provided and Train otherwise — the
// tensor observed-only fitters should regress on.
func (c *Context) ObservedValues() *tensor.COO {
	if c.Counts != nil {
		return c.Counts
	}
	return c.Train
}

// Visit is one training check-in in a user's time-ordered trajectory.
type Visit struct {
	POI       int
	TimeIndex int
}

// Sequences returns, per user, the training visits ordered by time index
// (ties broken by POI id for determinism). Sequential baselines train on
// these trajectories.
func (c *Context) Sequences() [][]Visit {
	if c.seqCache != nil {
		return c.seqCache
	}
	seqs := make([][]Visit, c.Train.DimI)
	for _, e := range c.Train.Entries() {
		seqs[e.I] = append(seqs[e.I], Visit{POI: e.J, TimeIndex: e.K})
	}
	for i := range seqs {
		s := seqs[i]
		sort.Slice(s, func(a, b int) bool {
			if s[a].TimeIndex != s[b].TimeIndex {
				return s[a].TimeIndex < s[b].TimeIndex
			}
			return s[a].POI < s[b].POI
		})
	}
	c.seqCache = seqs
	return seqs
}

// UserPOIMatrix collapses the tensor over time into the binary user-POI
// interaction matrix the matrix-completion baselines factorize.
func (c *Context) UserPOIMatrix() [][]float64 {
	m := make([][]float64, c.Train.DimI)
	for i := range m {
		m[i] = make([]float64, c.Train.DimJ)
	}
	for _, e := range c.Train.Entries() {
		m[e.I][e.J] = 1
	}
	return m
}

// Recommender is a fitted model that scores (user, POI, time) triples; it is
// the interface the experiment harness evaluates. Matrix-completion models
// ignore the time index, exactly as in the paper's protocol.
type Recommender interface {
	Name() string
	Fit(ctx *Context) error
	Score(i, j, k int) float64
}

// Registry returns a fresh instance of every Table I baseline, in the
// paper's row order.
func Registry() []Recommender {
	return []Recommender{
		NewMCCO(),
		NewPureSVD(),
		NewSTRNN(),
		NewSTAN(),
		NewSTGN(),
		NewLFBCA(),
		NewCP(),
		NewTucker(),
		NewPTucker(),
		NewTenInt(),
		NewNCF(),
		NewNTM(),
		NewCoSTCo(),
	}
}

// Lookup returns the baseline with the given name (as reported by Name), or
// an error listing the valid names.
func Lookup(name string) (Recommender, error) {
	var names []string
	for _, r := range Registry() {
		if r.Name() == name {
			return r, nil
		}
		names = append(names, r.Name())
	}
	return nil, fmt.Errorf("baselines: unknown model %q (want one of %v)", name, names)
}
