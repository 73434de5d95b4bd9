package tcss

import (
	"fmt"

	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/tensor"
)

// ObserveBatch bundles the check-ins of one observe step with the open-world
// arrivals they may reference: users signing up (with their initial
// friendships) and POIs opening. It is the unit the streaming drift simulator
// emits per week and the serving observe endpoint accepts.
type ObserveBatch struct {
	CheckIns []lbsn.CheckIn
	NewUsers []lbsn.NewUser
	NewPOIs  []lbsn.POI
}

// growNeighborK is how many geographically-nearest existing POIs warm-start
// a new POI's factor row.
const growNeighborK = 8

// ObserveOpen folds one batch into the trained model without retraining from
// scratch and returns the number of genuinely new tensor cells; it is the
// Recommender's one observe transaction. Check-ins may reference users and
// POIs beyond the model's dimensions, and the batch may carry the arrivals'
// metadata. When the batch needs it, model, training tensor and dataset grow
// first, new user rows starting at the mean of their friends' factors and new
// POI rows at their geographic neighbours' (core.GrowthHints;
// OnlineConfig.RandomGrowth ablates this). The check-ins are then inserted
// and the factors refined (core.Model.UpdateOnline), and the side information
// is refolded so later updates and explanations see the new data.
//
// A compact (float32 / int8) model is widened for the update and re-compacted
// after it, but it cannot grow: growing would warm-start rows from lossy
// factors and re-quantize every slab each batch. That fails with an error
// wrapping core.ErrCompactModel — route open-world writes to a float64 primary.
//
// The update is transactional: it runs on private copies, and model, tensor,
// side information and dataset are swapped in together only once every step
// has succeeded. On any error (wrapping ErrObserveReverted if it came after
// the factor update), and when nothing grew and no cell was added, the
// Recommender is untouched. Previously published Model/Side references (e.g.
// a serving snapshot) stay valid and internally consistent.
func (r *Recommender) ObserveOpen(batch ObserveBatch, cfg OnlineConfig) (int, error) {
	oldI, oldJ := r.Model.I, r.Model.J
	// Arrivals whose ids already fit the model are stale duplicates — a
	// retried batch, or a gateway fan-out reaching this node twice. Drop them
	// so re-delivery is idempotent; their rows already exist.
	var newUsers []lbsn.NewUser
	for _, u := range batch.NewUsers {
		if u.ID >= oldI {
			newUsers = append(newUsers, u)
		}
	}
	var newPOIs []lbsn.POI
	for _, p := range batch.NewPOIs {
		if p.ID >= oldJ {
			newPOIs = append(newPOIs, p)
		}
	}
	needI, needJ := oldI, oldJ
	for _, c := range batch.CheckIns {
		needI = max(needI, c.User+1)
		needJ = max(needJ, c.POI+1)
	}
	for _, u := range newUsers {
		needI = max(needI, u.ID+1)
	}
	for _, p := range newPOIs {
		needJ = max(needJ, p.ID+1)
	}
	grow := needI > oldI || needJ > oldJ
	mode := r.Model.Mode
	if grow && mode != StorageFloat64 {
		return 0, fmt.Errorf("tcss: open-world observe on %v storage: %w", mode, core.ErrCompactModel)
	}

	ds := r.Dataset
	var err error
	if grow {
		if ds, err = r.Dataset.Grown(newUsers, newPOIs, needI, needJ); err != nil {
			return 0, err
		}
	}
	model := r.Model.Decompress()
	if model == r.Model {
		model = model.Clone()
	}
	train := r.Train.Clone()
	if grow {
		if err := model.Grow(needI, needJ, growthHints(ds.Distances(), newUsers, newPOIs, oldJ, needJ, cfg)); err != nil {
			return 0, err
		}
		train.Grow(needI, needJ, train.DimK)
	}

	entries := make([]tensor.Entry, len(batch.CheckIns))
	for n, c := range batch.CheckIns {
		entries[n] = tensor.Entry{I: c.User, J: c.POI, K: r.Gran.Index(c), Val: 1}
	}
	added, err := model.UpdateOnline(train, entries, cfg)
	if err != nil {
		return 0, err
	}
	if added == 0 && !grow {
		return 0, nil
	}

	// The refold's base: after growth without decay only the batch's rows and
	// the grown rows are dirty, which the fold recomputes exactly on top of
	// r.Side. Decay (DecayScale inside UpdateOnline) drops cells of arbitrary
	// users and POIs, so the batch's entries no longer bound the dirty rows:
	// refold every row, as an in-range batch also does.
	var base *core.SideInfo
	if grow && cfg.DecayHalfLife == 0 {
		base = r.Side
	}
	side, err := foldSide(base, ds, train, entries)
	if err != nil {
		return 0, fmt.Errorf("%w: refolding side info: %v", ErrObserveReverted, err)
	}
	if model, err = model.ToStorage(mode); err != nil {
		return 0, fmt.Errorf("%w: re-compacting model: %v", ErrObserveReverted, err)
	}
	r.Model, r.Train, r.Side, r.Dataset = model, train, side, ds
	r.Dataset.CheckIns = append(r.Dataset.CheckIns, batch.CheckIns...)
	return added, nil
}

// growthHints warm-starts the rows growth appends: friendship for user rows,
// geographic proximity for POI rows. Neighbour candidates are restricted to
// pre-growth POIs — placeholders and same-batch arrivals carry no learned
// signal.
func growthHints(dist *geo.DistanceMatrix, newUsers []lbsn.NewUser, newPOIs []lbsn.POI, oldJ, needJ int, cfg OnlineConfig) *core.GrowthHints {
	hints := &core.GrowthHints{
		Friends:  make(map[int][]int),
		NearPOIs: make(map[int][]int),
		Random:   cfg.RandomGrowth,
		Seed:     cfg.Seed,
	}
	for _, u := range newUsers {
		hints.Friends[u.ID] = u.Friends
	}
	for _, p := range newPOIs {
		near := dist.NearestIndices(p.ID, growNeighborK+(needJ-oldJ))
		keep := make([]int, 0, growNeighborK)
		for _, j := range near {
			if j < oldJ {
				keep = append(keep, j)
				if len(keep) == growNeighborK {
					break
				}
			}
		}
		hints.NearPOIs[p.ID] = keep
	}
	return hints
}
