package serve

import (
	"sync/atomic"
	"time"

	"tcss/internal/core"
)

// Snapshot is one immutable, internally consistent view of the serving state:
// the model factors and the side information they were trained (or last
// updated) against, tagged with a monotonically increasing generation. A
// snapshot is published once behind the server's atomic pointer and never
// mutated afterwards — the single-writer update goroutine builds a fresh
// model/side pair (Recommender.ObserveOpen swaps in new objects rather than
// editing published ones) and swaps the pointer, so readers either see the
// old generation or the new one, never a half-updated model.
type Snapshot struct {
	// Gen is the snapshot generation: FirstGeneration for the snapshot
	// published at startup, incremented by one per applied observe batch.
	Gen uint64
	// Model and Side are immutable once published.
	Model *core.Model
	Side  *core.SideInfo
	// Created is the publish time, reported as snapshot age in /metrics.
	Created time.Time
}

// holder wraps the atomic snapshot pointer. Reads are lock-free and
// wait-free; there is exactly one writer (the update goroutine).
type holder struct {
	p atomic.Pointer[Snapshot]
}

func (h *holder) load() *Snapshot   { return h.p.Load() }
func (h *holder) store(s *Snapshot) { h.p.Store(s) }
