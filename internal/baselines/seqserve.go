package baselines

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/nn"
)

// ErrNotFitted is returned by the serving-facing methods of the sequential
// models (SeqServer) when the model has not been trained or loaded yet. The
// registry maps it to HTTP 503: the model exists but cannot score.
var ErrNotFitted = errors.New("baselines: sequential model is not fitted")

// SeqServer is the servable surface of the sequential baselines (STRNN, STGN,
// STAN). It extends the offline Recommender protocol with explicit top-N
// entry points, dimension metadata, and a next-POI mode that scores a caller
// supplied check-in sequence rather than the training trajectory. The
// unexported methods restrict implementations to this package, which is what
// lets SaveSeqState/LoadSeqState round-trip every implementation exactly.
type SeqServer interface {
	Recommender
	// Dims reports (users, pois, times); all zero before Fit.
	Dims() (users, pois, times int)
	// RecommendTopN ranks all POIs for a known user at time unit t using the
	// user's training-trajectory summary state.
	RecommendTopN(user, t, n int) ([]core.Recommendation, error)
	// NextTopN ranks all POIs as the next check-in after the supplied
	// time-ordered sequence, scored at target time unit t. Revisits are
	// valid next-POI outcomes, so visited POIs are not excluded.
	NextTopN(user int, seq []Visit, t, n int) ([]core.Recommendation, error)

	// build allocates the model's layers with weights drawn from rng; Fit and
	// LoadSeqState both start here.
	build(users, pois, times, rank int, rng *rand.Rand)
	captureState() (*seqState, error)
	// admit refuses a decoded state file whose dims its own parameters do
	// not carry, before build allocates from them.
	admit(st *seqState, dist *geo.DistanceMatrix) error
	// restore fills a freshly built model from a decoded state file.
	restore(st *seqState, dist *geo.DistanceMatrix) error
}

// SeqLookup returns the named sequential model ready for Fit, or false if the
// name is not a sequential baseline.
func SeqLookup(name string) (SeqServer, bool) {
	switch name {
	case "STRNN":
		return NewSTRNN(), true
	case "STGN":
		return NewSTGN(), true
	case "STAN":
		return NewSTAN(), true
	}
	return nil, false
}

// topN scores every POI j by readout(a, b, e_j) and returns the n best, ties
// broken by the lower POI id so responses are deterministic.
func topN(a, b []float64, pois *nn.Embedding, n int) []core.Recommendation {
	recs := make([]core.Recommendation, pois.N)
	for j := range recs {
		recs[j] = core.Recommendation{POI: j, Score: readout(a, b, pois.Lookup(j))}
	}
	sort.Slice(recs, func(x, y int) bool {
		if recs[x].Score != recs[y].Score {
			return recs[x].Score > recs[y].Score
		}
		return recs[x].POI < recs[y].POI
	})
	return slices.Clone(recs[:min(n, len(recs))])
}

// checkQuery validates a serving query against m's dims. A next-POI query
// (next) must carry at least one check-in.
func checkQuery(m SeqServer, user, t, n int, seq []Visit, next bool) error {
	users, pois, times := m.Dims()
	if pois == 0 { // Dims is all zero before Fit
		return ErrNotFitted
	}
	if next && len(seq) == 0 {
		return fmt.Errorf("baselines: next-POI query needs at least one check-in")
	}
	if user < 0 || user >= users {
		return fmt.Errorf("baselines: user %d out of range [0,%d)", user, users)
	}
	if t < 0 || t >= times {
		return fmt.Errorf("baselines: time %d out of range [0,%d)", t, times)
	}
	if n <= 0 {
		return fmt.Errorf("baselines: n must be positive, got %d", n)
	}
	for i, v := range seq {
		if v.POI < 0 || v.POI >= pois {
			return fmt.Errorf("baselines: checkin %d poi %d out of range [0,%d)", i, v.POI, pois)
		}
		if v.TimeIndex < 0 || v.TimeIndex >= times {
			return fmt.Errorf("baselines: checkin %d time %d out of range [0,%d)", i, v.TimeIndex, times)
		}
	}
	return nil
}

// Dims implements SeqServer.
func (m *recurrent) Dims() (int, int, int) {
	if !m.fit {
		return 0, 0, 0
	}
	return len(m.finalH), m.embPOI.N, m.embTime.N
}

// RecommendTopN implements SeqServer using the user's final hidden state.
func (m *recurrent) RecommendTopN(user, t, n int) ([]core.Recommendation, error) {
	if err := checkQuery(m, user, t, n, nil, false); err != nil {
		return nil, err
	}
	return topN(m.finalH[user], m.embTime.Lookup(t), m.embPOI, n), nil
}

// NextTopN implements SeqServer: the hidden state is rolled from zero over
// the supplied sequence with the same transition features as training, then
// every POI is scored at target time t.
func (m *recurrent) NextTopN(user int, seq []Visit, t, n int) ([]core.Recommendation, error) {
	if err := checkQuery(m, user, t, n, seq, true); err != nil {
		return nil, err
	}
	return topN(m.roll(seq, nil), m.embTime.Lookup(t), m.embPOI, n), nil
}

// Dims implements SeqServer.
func (s *STAN) Dims() (int, int, int) {
	if !s.fit {
		return 0, 0, 0
	}
	return s.embUser.N, s.embPOI.N, s.embTime.N
}

// RecommendTopN implements SeqServer: the attended context over the user's
// training trajectory plus the user embedding scores every POI.
func (s *STAN) RecommendTopN(user, t, n int) ([]core.Recommendation, error) {
	if err := checkQuery(s, user, t, n, nil, false); err != nil {
		return nil, err
	}
	return topN(s.context(user, t), s.embUser.Lookup(user), s.embPOI, n), nil
}

// NextTopN implements SeqServer: attention runs over the supplied sequence
// instead of the stored training trajectory.
func (s *STAN) NextTopN(user int, seq []Visit, t, n int) ([]core.Recommendation, error) {
	if err := checkQuery(s, user, t, n, seq, true); err != nil {
		return nil, err
	}
	out, _ := s.attend(user, t, seq)
	return topN(out, s.embUser.Lookup(user), s.embPOI, n), nil
}
