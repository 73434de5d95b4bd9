package replay

import (
	"tcss"
	"tcss/internal/lbsn"
)

// LocalTarget replays against an in-process tcss.Recommender through its
// open-world observe path. The generation it reports is a simple fold
// counter (one per applied week), mirroring the snapshot generations a serve
// node would mint for the same stream.
type LocalTarget struct {
	Rec *tcss.Recommender
	// Online configures every fold; tcss.DefaultOnlineConfig() is the usual
	// choice.
	Online tcss.OnlineConfig

	gen uint64
}

func (t *LocalTarget) Dims() (int, int, error) {
	return t.Rec.Model.I, t.Rec.Model.J, nil
}

func (t *LocalTarget) Recommend(user, tt, n int) ([]int, error) {
	recs := t.Rec.Recommend(user, tt, n)
	pois := make([]int, len(recs))
	for i, r := range recs {
		pois[i] = r.POI
	}
	return pois, nil
}

func (t *LocalTarget) ObserveWeek(wb lbsn.WeekBatch) (uint64, error) {
	batch := tcss.ObserveBatch{
		CheckIns: wb.CheckIns,
		NewUsers: wb.NewUsers,
		NewPOIs:  wb.NewPOIs,
	}
	if _, err := t.Rec.ObserveOpen(batch, t.Online); err != nil {
		return t.gen, err
	}
	t.gen++
	return t.gen, nil
}
