package serve

import (
	"tcss/internal/core"
	"tcss/internal/registry"
)

// Scorer is the model seam the read path routes through — re-exported from
// internal/registry, where it lives so the registry never has to import the
// server. Anything implementing it (the TCSS snapshot adapter below, the
// sequential baselines via registry.SeqScorer, future AirCP/BPTF adapters) is
// servable behind /v1/recommend, and NextScorers additionally behind
// /v1/next.
type Scorer = registry.Scorer

// snapshotScorer adapts the server's own snapshot path — atomic snapshot
// load, pooled scratch or the request coalescer — to the Scorer interface.
// It is registered as the registry's primary model, so the default routing
// behaves exactly like the single-model server did: same scoring path, same
// bytes.
type snapshotScorer struct {
	s    *Server
	name string
}

// Name implements Scorer.
func (t *snapshotScorer) Name() string { return t.name }

// Generation implements Scorer.
func (t *snapshotScorer) Generation() uint64 { return t.s.snap.load().Gen }

// Dims implements Scorer.
func (t *snapshotScorer) Dims() (int, int, int) {
	snap := t.s.snap.load()
	return snap.Model.I, snap.Model.J, snap.Model.K
}

// Recommend implements Scorer. With coalescing enabled the request joins the
// pending batch and reports the generation of the snapshot the batch executed
// on; otherwise it scores the current snapshot with pooled scratch. Both are
// bit-identical to the pre-registry request path.
func (t *snapshotScorer) Recommend(user, tIdx, n int) ([]core.Recommendation, uint64, error) {
	if t.s.coal != nil {
		recs, esnap := t.s.coal.do(user, tIdx, n)
		return recs, esnap.Gen, nil
	}
	snap := t.s.snap.load()
	sc := t.s.getScratch()
	recs := snap.Model.TopNScratch(user, tIdx, n, snap.Side.OwnPOIs[user], sc)
	t.s.putScratch(sc)
	return recs, snap.Gen, nil
}
