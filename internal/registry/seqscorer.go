package registry

import (
	"errors"
	"fmt"

	"tcss/internal/baselines"
	"tcss/internal/core"
)

// SeqScorer adapts a sequential baseline (baselines.SeqServer: STRNN, STGN,
// STAN) to the registry's NextScorer interface. The generation is fixed at
// construction — sequential models are immutable while serving; a reload
// registers a new scorer with a higher generation.
type SeqScorer struct {
	m   baselines.SeqServer
	gen uint64
}

// NewSeqScorer wraps m at the given serving generation.
func NewSeqScorer(m baselines.SeqServer, gen uint64) *SeqScorer {
	return &SeqScorer{m: m, gen: gen}
}

// Name implements Scorer.
func (s *SeqScorer) Name() string { return s.m.Name() }

// Generation implements Scorer.
func (s *SeqScorer) Generation() uint64 { return s.gen }

// Dims implements Scorer.
func (s *SeqScorer) Dims() (int, int, int) { return s.m.Dims() }

// Recommend implements Scorer.
func (s *SeqScorer) Recommend(user, t, n int) ([]core.Recommendation, uint64, error) {
	out, err := s.m.RecommendTopN(user, t, n)
	if err != nil {
		return nil, 0, mapSeqErr(err)
	}
	return out, s.gen, nil
}

// Next implements NextScorer.
func (s *SeqScorer) Next(user int, seq []Event, t, n int) ([]core.Recommendation, uint64, error) {
	visits := make([]baselines.Visit, len(seq))
	for i, e := range seq {
		visits[i] = baselines.Visit{POI: e.POI, TimeIndex: e.T}
	}
	out, err := s.m.NextTopN(user, visits, t, n)
	if err != nil {
		return nil, 0, mapSeqErr(err)
	}
	return out, s.gen, nil
}

func mapSeqErr(err error) error {
	if errors.Is(err, baselines.ErrNotFitted) {
		return fmt.Errorf("%w: %v", ErrNotReady, err)
	}
	return err
}
