package serve

import (
	"errors"
	"fmt"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/lbsn"
)

// ErrReadOnly is the sentinel returned by sources that cannot apply observe
// batches: replicas fed by snapshot shipping and static (synthetic or
// mmap-served) models. Handlers answer such observes with 421 so a
// misconfigured client — or a gateway with a stale ring — learns it is
// talking to the wrong node rather than silently losing writes.
var ErrReadOnly = errors.New("serve: node is read-only, observe at the shard primary")

// Source is the snapshot-source seam between the HTTP server and the model
// it serves. The server's read path only ever touches immutable Snapshots;
// a Source answers the two questions the write path needs: what snapshot to
// publish at startup, and how to fold an observe batch into the next one.
//
// This seam is what lets one Server implementation serve three roles:
//
//   - single node / shard primary: RecommenderSource applies observes via
//     the transactional tcss.Recommender.ObserveOpen;
//   - shard replica: StaticSource rejects observes with ErrReadOnly and the
//     snapshot-shipping Replicator publishes shipped generations through
//     Server.Publish;
//   - synthetic or mmap-backed read-only serving: StaticSource again.
//
// Observe is only ever called from the server's single-writer goroutine, so
// implementations need no internal locking against themselves.
type Source interface {
	// Snapshot returns the model and side information to publish at startup.
	Snapshot() (*core.Model, *core.SideInfo)
	// Granularity maps observe check-ins to tensor time units.
	Granularity() lbsn.Granularity
	// Observe folds a batch — check-ins plus any open-world arrivals — and
	// returns the number of genuinely new tensor cells plus the fresh
	// model/side pair to publish. The pair must be fresh objects whenever the
	// model changed (including pure growth with zero new cells, so the writer
	// can detect it by pointer); read-only sources return ErrReadOnly.
	Observe(batch tcss.ObserveBatch, cfg tcss.OnlineConfig) (added int, model *core.Model, side *core.SideInfo, err error)
	// ReadOnly reports whether Observe always fails with ErrReadOnly; the
	// handlers use it to reject writes before they reach the writer queue.
	ReadOnly() bool
}

// RecommenderSource adapts a fitted tcss.Recommender to the Source seam.
// After the server starts, the writer goroutine owns the Recommender.
type RecommenderSource struct {
	Rec *tcss.Recommender
}

// Snapshot returns the recommender's current model and side information.
func (s *RecommenderSource) Snapshot() (*core.Model, *core.SideInfo) {
	return s.Rec.Model, s.Rec.Side
}

// Granularity returns the granularity the recommender was fitted at.
func (s *RecommenderSource) Granularity() lbsn.Granularity { return s.Rec.Gran }

// Observe applies the batch through the recommender's one observe
// transaction, ObserveOpen, and returns the recommender's model/side: fresh
// objects whenever anything changed (published ones are never mutated), the
// unchanged ones when nothing grew and no cell was added.
func (s *RecommenderSource) Observe(batch tcss.ObserveBatch, cfg tcss.OnlineConfig) (int, *core.Model, *core.SideInfo, error) {
	added, err := s.Rec.ObserveOpen(batch, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	return added, s.Rec.Model, s.Rec.Side, nil
}

// ReadOnly reports false: a recommender-backed node is a writable primary.
func (s *RecommenderSource) ReadOnly() bool { return false }

// StaticSource serves a fixed model/side pair and rejects observes. It backs
// replicas (whose snapshots arrive via Server.Publish from the shipping
// Replicator) and read-only deployments such as synthetic load-test models.
type StaticSource struct {
	Model *core.Model
	Side  *core.SideInfo
	Gran  lbsn.Granularity
}

// Snapshot returns the static model and side information.
func (s *StaticSource) Snapshot() (*core.Model, *core.SideInfo) { return s.Model, s.Side }

// Granularity returns the declared granularity.
func (s *StaticSource) Granularity() lbsn.Granularity { return s.Gran }

// Observe always fails with ErrReadOnly.
func (s *StaticSource) Observe(tcss.ObserveBatch, tcss.OnlineConfig) (int, *core.Model, *core.SideInfo, error) {
	return 0, nil, nil, ErrReadOnly
}

// ReadOnly reports true.
func (s *StaticSource) ReadOnly() bool { return true }

// validateSource rejects sources that cannot publish a first snapshot.
func validateSource(src Source) error {
	if src == nil {
		return fmt.Errorf("serve: nil snapshot source")
	}
	m, side := src.Snapshot()
	if m == nil || side == nil {
		return fmt.Errorf("serve: snapshot source has no model or side information")
	}
	return nil
}
