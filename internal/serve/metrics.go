package serve

import (
	"encoding/json"
	"net/http"

	"tcss/internal/wire"
)

// newMetrics returns the server's /metrics document with the fields that
// never change after boot already set. The document is the live storage: the
// request path adds to its Counters and Histograms directly.
func (s *Server) newMetrics() *wire.NodeMetrics {
	m := &wire.NodeMetrics{}
	m.Shard.Name, m.Shard.Role = s.opts.ShardName, s.opts.Role
	m.Replication.MaxGenLag = s.opts.MaxGenLag
	m.Coalesce.BatchSizes = make([]wire.CoalesceBucket, len(coalesceBucketLabels))
	for i, label := range coalesceBucketLabels {
		m.Coalesce.BatchSizes[i].Bucket = label
	}
	m.ObserveStats.QueueCap = cap(s.cmds)
	m.ObserveStats.GrowEnabled = s.opts.Grow
	m.Admission.MaxInflight, m.Admission.MaxQueue = s.adm.maxInflight, s.adm.maxQueue
	return m
}

// fillGauges writes the document's scrape-time fields — everything that is a
// reading of current state or derived from the counters rather than a
// counter. Callers hold scrapeMu.
func (s *Server) fillGauges() {
	m := s.met
	m.UptimeSeconds = s.opts.now().Sub(s.start).Seconds()
	m.Summarize()
	m.Models, m.Routing = s.reg.Stats()

	if hits, misses := m.Cache.Hits.Load(), m.Cache.Misses.Load(); hits+misses > 0 {
		m.Cache.HitRate = float64(hits) / float64(hits+misses)
	}
	m.Cache.Entries = s.cache.len()

	m.Replication.PrimaryGeneration = s.primaryGen.Load()
	if snap := s.snap.load(); snap != nil {
		m.Snapshot.Generation = snap.Gen
		m.Snapshot.AgeSeconds = s.opts.now().Sub(snap.Created).Seconds()
		m.Replication.GenerationLag = s.genLag(snap.Gen)
		m.Model.Storage = snap.Model.Mode.String()
		m.Model.FactorBytes = snap.Model.FactorBytes()
		m.Model.Users, m.Model.POIs = snap.Model.I, snap.Model.J
		if snap.Model.I > 0 {
			m.Model.BytesPerUser = float64(m.Model.FactorBytes) / float64(snap.Model.I)
		}
	}

	if batches := m.Coalesce.Batches.Load(); batches > 0 {
		m.Coalesce.AvgBatchSize = float64(m.Coalesce.Requests.Load()) / float64(batches)
	}

	m.ObserveStats.QueueLen = len(s.cmds)
	m.Admission.Inflight = s.adm.inflight.Load()
	m.Admission.Queued = s.adm.waiting.Load()
	m.Reliability.BreakerState, _, _ = s.brk.status()
}

// serveMetrics answers GET /metrics with the live document. The scrape lock
// orders concurrent scrapes' gauge writes; the counters need none.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapeMu.Lock()
	s.fillGauges()
	body, err := json.MarshalIndent(s.met, "", "  ")
	s.scrapeMu.Unlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
