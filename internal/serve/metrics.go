package serve

import (
	"sync/atomic"
	"time"

	"tcss/internal/registry"
)

// metrics aggregates the server's observability counters. All counters are
// atomics so the request path never takes a lock beyond the latency windows'.
type metrics struct {
	start time.Time

	recommendTotal atomic.Int64
	nextTotal      atomic.Int64
	explainTotal   atomic.Int64
	observeTotal   atomic.Int64

	modelNotFound atomic.Int64 // 404s from unknown ?model= names
	modelNotReady atomic.Int64 // 503s from registered-but-unfitted models

	badRequest     atomic.Int64 // 400s
	shed           atomic.Int64 // 503s from admission or observe queue
	deadlineMissed atomic.Int64 // 504s
	budgetClamped  atomic.Int64 // requests whose X-Deadline-Budget undercut RequestTimeout
	internalErrors atomic.Int64 // 500s
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	observeApplied atomic.Int64 // observe batches that swapped a snapshot
	observeNoop    atomic.Int64 // observe batches with no new cells
	observeAdded   atomic.Int64 // total new tensor cells folded in
	snapshotSwaps  atomic.Int64
	snapshotSaves  atomic.Int64

	// Open-world growth counters: user/POI rows added by observe-path growth,
	// growth batches rejected because the model is compact (503), and batches
	// rejected because growth is disabled or failed range checks (409).
	observeGrownUsers      atomic.Int64
	observeGrownPOIs       atomic.Int64
	observeRejectedCompact atomic.Int64
	observeRejectedRange   atomic.Int64

	// Reliability counters, all monotonic: write-path failures, snapshot
	// save retries/failures, circuit-breaker transitions, and loads the
	// checksum rejected.
	observeFailures   atomic.Int64 // observes that errored (injected or real)
	saveFailures      atomic.Int64 // saves that failed after all retries
	saveRetries       atomic.Int64 // individual save retry attempts
	breakerTrips      atomic.Int64 // closed/half-open -> open transitions
	breakerRecoveries atomic.Int64 // open/half-open -> closed transitions
	breakerRejected   atomic.Int64 // writes rejected while open
	checksumRejected  atomic.Int64 // read-backs that failed the CRC frame

	// Coalescing counters: batches executed, requests that travelled in
	// them, and a batch-size histogram (buckets per coalesceBucket).
	coalesceBatches  atomic.Int64
	coalesceRequests atomic.Int64
	coalesceHist     [len(coalesceBucketLabels)]atomic.Int64

	// Cluster counters: requests rejected because this node does not own the
	// user (421 — a gateway/shard ring disagreement), shipments served to
	// replicas, and the replica-side replication pipeline (publishes applied
	// by the writer, sync attempts that fetched something, failures, and
	// shipments the CRC frame rejected).
	misrouted          atomic.Int64
	shipmentsServed    atomic.Int64
	replicationApplied atomic.Int64
	replicationSyncs   atomic.Int64
	replicationFails   atomic.Int64
	replicationCRC     atomic.Int64

	recommendLat registry.LatencyWindow
	nextLat      registry.LatencyWindow
	explainLat   registry.LatencyWindow
	observeLat   registry.LatencyWindow
}

// coalesceBucketCount is one batch-size histogram bucket in /metrics,
// serialized as an ordered list so bucket order survives JSON encoding.
type coalesceBucketCount struct {
	Bucket string `json:"bucket"`
	Count  int64  `json:"count"`
}

// routeStats is the per-request-class block of the /metrics document.
type routeStats struct {
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

// latencyWindows carries the raw per-route latency samples (milliseconds,
// bounded by registry.WindowSize) when /metrics is scraped with ?window=1. The
// gateway merges these across shards; plain scrapes omit the block.
type latencyWindows struct {
	RecommendMs []float64 `json:"recommend_ms"`
	NextMs      []float64 `json:"next_ms"`
	ExplainMs   []float64 `json:"explain_ms"`
	ObserveMs   []float64 `json:"observe_ms"`
}

// metricsSnapshot is the JSON document served by GET /metrics.
type metricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Shard identifies this node inside a cluster; empty for standalone
	// deployments. Misrouted counts 421s from ring disagreements.
	Shard struct {
		Name      string `json:"name,omitempty"`
		Role      string `json:"role,omitempty"`
		Misrouted int64  `json:"misrouted"`
	} `json:"shard"`

	Recommend routeStats `json:"recommend"`
	Next      routeStats `json:"next"`
	Explain   routeStats `json:"explain"`
	Observe   routeStats `json:"observe"`

	BadRequests    int64 `json:"bad_requests"`
	Shed           int64 `json:"shed_503"`
	DeadlineMissed int64 `json:"deadline_504"`
	InternalErrors int64 `json:"internal_500"`
	ModelNotFound  int64 `json:"model_404"`
	ModelNotReady  int64 `json:"model_not_ready_503"`

	// Routing and Models are the multi-model serving blocks: the active
	// routing policy (primary, A/B split, shadow) and one stats block per
	// registered model (req/s inputs, latency percentiles, cache hits,
	// shadow agreement).
	Routing registry.RoutingInfo  `json:"routing"`
	Models  []registry.ModelStats `json:"models"`

	Cache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Entries int     `json:"entries"`
	} `json:"cache"`

	Snapshot struct {
		Generation uint64  `json:"generation"`
		AgeSeconds float64 `json:"age_seconds"`
		Swaps      int64   `json:"swaps"`
		Saves      int64   `json:"saves"`
	} `json:"snapshot"`

	// Replication reports the snapshot-shipping pipeline: shipments this
	// node served to replicas, and — on replicas — publishes applied, sync
	// fetches, failures, shipments rejected by the CRC frame, plus the
	// staleness view (the primary's newest advertised generation, how many
	// generations this node trails it, and the configured bound).
	Replication struct {
		ShipmentsServed   int64  `json:"shipments_served"`
		Applied           int64  `json:"applied"`
		Syncs             int64  `json:"syncs"`
		Failures          int64  `json:"failures"`
		ChecksumRejected  int64  `json:"checksum_rejected"`
		PrimaryGeneration uint64 `json:"primary_generation,omitempty"`
		GenerationLag     uint64 `json:"generation_lag,omitempty"`
		MaxGenLag         uint64 `json:"max_generation_lag,omitempty"`
	} `json:"replication"`

	// Model reports the resident factor storage of the served snapshot:
	// the storage mode, total factor bytes (slabs + scales + core weights),
	// and bytes per user — the capacity-planning number the compact modes
	// exist to shrink.
	Model struct {
		Storage      string  `json:"storage"`
		FactorBytes  int64   `json:"factor_bytes"`
		BytesPerUser float64 `json:"bytes_per_user"`
		// Users and POIs are the served snapshot's dimensions — under
		// open-world growth these rise over a node's lifetime.
		Users int `json:"users"`
		POIs  int `json:"pois"`
	} `json:"model"`

	// Coalesce reports the request-batching pipeline: whether it is on, how
	// many batches ran, how many requests travelled in them, the mean batch
	// size, and a batch-size histogram. Mean sizes near 1 mean the window is
	// too short (or load too light) for requests to share slab passes.
	Coalesce struct {
		Enabled      bool                  `json:"enabled"`
		WindowUs     float64               `json:"window_us"`
		MaxBatch     int                   `json:"max_batch"`
		Batches      int64                 `json:"batches"`
		Requests     int64                 `json:"requests"`
		AvgBatchSize float64               `json:"avg_batch_size"`
		BatchSizes   []coalesceBucketCount `json:"batch_size_counts"`
	} `json:"coalesce"`

	ObserveStats struct {
		Applied    int64 `json:"applied"`
		Noop       int64 `json:"noop"`
		CellsAdded int64 `json:"cells_added"`
		QueueCap   int   `json:"queue_capacity"`
		QueueLen   int   `json:"queue_length"`
		// Open-world growth: whether this node accepts growth batches, how
		// many user/POI rows observes have added, and the typed rejections
		// (compact storage → 503, out-of-range with growth off → 409).
		GrowEnabled        bool  `json:"grow_enabled"`
		GrownUsers         int64 `json:"observe_grown_users"`
		GrownPOIs          int64 `json:"observe_grown_pois"`
		RejectedCompact    int64 `json:"observe_rejected_compact"`
		RejectedOutOfRange int64 `json:"observe_rejected_out_of_range"`
	} `json:"observe_pipeline"`

	Admission struct {
		Inflight    int64 `json:"inflight"`
		Queued      int64 `json:"queued"`
		MaxInflight int   `json:"max_inflight"`
		MaxQueue    int   `json:"max_queue"`
		// BudgetClamped counts requests whose X-Deadline-Budget header was
		// tighter than RequestTimeout — deadline propagation in action.
		BudgetClamped int64 `json:"deadline_budget_clamped"`
	} `json:"admission"`

	Reliability struct {
		ObserveFailures       int64  `json:"observe_failures"`
		SaveFailures          int64  `json:"save_failures"`
		SaveRetries           int64  `json:"save_retries"`
		BreakerState          string `json:"breaker_state"`
		BreakerTrips          int64  `json:"breaker_trips"`
		BreakerRecoveries     int64  `json:"breaker_recoveries"`
		BreakerRejected       int64  `json:"breaker_rejected"`
		ChecksumRejectedLoads int64  `json:"checksum_rejected_loads"`
	} `json:"reliability"`

	// Windows is present only when /metrics is scraped with ?window=1: the
	// raw latency samples behind the percentiles above, for cross-shard
	// percentile merging at the gateway.
	Windows *latencyWindows `json:"windows,omitempty"`
}

// collectMetrics snapshots every counter into the /metrics document.
// includeWindows additionally copies out the raw latency windows, up to
// 4×registry.WindowSize float64s of allocation — opt-in for gateway scrapes only.
func (s *Server) collectMetrics(includeWindows bool) metricsSnapshot {
	m := s.met
	var out metricsSnapshot
	out.UptimeSeconds = s.opts.now().Sub(m.start).Seconds()

	fill := func(dst *routeStats, total *atomic.Int64, lat *registry.LatencyWindow) {
		dst.Count = total.Load()
		dst.P50ms, dst.P95ms, dst.P99ms = registry.Percentiles(lat.Samples())
	}
	fill(&out.Recommend, &m.recommendTotal, &m.recommendLat)
	fill(&out.Next, &m.nextTotal, &m.nextLat)
	fill(&out.Explain, &m.explainTotal, &m.explainLat)
	fill(&out.Observe, &m.observeTotal, &m.observeLat)

	out.Models, out.Routing = s.reg.Stats()

	out.Shard.Name = s.opts.ShardName
	out.Shard.Role = s.opts.Role
	out.Shard.Misrouted = m.misrouted.Load()

	out.Replication.ShipmentsServed = m.shipmentsServed.Load()
	out.Replication.Applied = m.replicationApplied.Load()
	out.Replication.Syncs = m.replicationSyncs.Load()
	out.Replication.Failures = m.replicationFails.Load()
	out.Replication.ChecksumRejected = m.replicationCRC.Load()
	out.Replication.PrimaryGeneration = s.primaryGen.Load()
	out.Replication.MaxGenLag = s.opts.MaxGenLag

	if includeWindows {
		out.Windows = &latencyWindows{
			RecommendMs: m.recommendLat.Samples(),
			NextMs:      m.nextLat.Samples(),
			ExplainMs:   m.explainLat.Samples(),
			ObserveMs:   m.observeLat.Samples(),
		}
	}

	out.BadRequests = m.badRequest.Load()
	out.Shed = m.shed.Load()
	out.DeadlineMissed = m.deadlineMissed.Load()
	out.InternalErrors = m.internalErrors.Load()
	out.ModelNotFound = m.modelNotFound.Load()
	out.ModelNotReady = m.modelNotReady.Load()

	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	out.Cache.Hits, out.Cache.Misses = hits, misses
	if hits+misses > 0 {
		out.Cache.HitRate = float64(hits) / float64(hits+misses)
	}
	out.Cache.Entries = s.cache.len()

	if snap := s.snap.load(); snap != nil {
		out.Snapshot.Generation = snap.Gen
		out.Replication.GenerationLag = s.genLag(snap.Gen)
		out.Snapshot.AgeSeconds = s.opts.now().Sub(snap.Created).Seconds()
		out.Model.Storage = snap.Model.Mode.String()
		out.Model.FactorBytes = snap.Model.FactorBytes()
		out.Model.Users = snap.Model.I
		out.Model.POIs = snap.Model.J
		if snap.Model.I > 0 {
			out.Model.BytesPerUser = float64(out.Model.FactorBytes) / float64(snap.Model.I)
		}
	}
	out.Snapshot.Swaps = m.snapshotSwaps.Load()
	out.Snapshot.Saves = m.snapshotSaves.Load()

	out.Coalesce.Enabled = s.coal != nil
	if s.coal != nil {
		out.Coalesce.WindowUs = float64(s.coal.window) / float64(time.Microsecond)
		out.Coalesce.MaxBatch = s.coal.maxBatch
	}
	out.Coalesce.Batches = m.coalesceBatches.Load()
	out.Coalesce.Requests = m.coalesceRequests.Load()
	if out.Coalesce.Batches > 0 {
		out.Coalesce.AvgBatchSize = float64(out.Coalesce.Requests) / float64(out.Coalesce.Batches)
	}
	out.Coalesce.BatchSizes = make([]coalesceBucketCount, len(coalesceBucketLabels))
	for i, label := range coalesceBucketLabels {
		out.Coalesce.BatchSizes[i] = coalesceBucketCount{Bucket: label, Count: m.coalesceHist[i].Load()}
	}

	out.ObserveStats.Applied = m.observeApplied.Load()
	out.ObserveStats.Noop = m.observeNoop.Load()
	out.ObserveStats.CellsAdded = m.observeAdded.Load()
	out.ObserveStats.QueueCap = cap(s.cmds)
	out.ObserveStats.QueueLen = len(s.cmds)
	out.ObserveStats.GrowEnabled = s.opts.Grow
	out.ObserveStats.GrownUsers = m.observeGrownUsers.Load()
	out.ObserveStats.GrownPOIs = m.observeGrownPOIs.Load()
	out.ObserveStats.RejectedCompact = m.observeRejectedCompact.Load()
	out.ObserveStats.RejectedOutOfRange = m.observeRejectedRange.Load()

	out.Admission.Inflight = s.adm.inflight.Load()
	out.Admission.Queued = s.adm.waiting.Load()
	out.Admission.MaxInflight = s.adm.maxInflight
	out.Admission.MaxQueue = s.adm.maxQueue
	out.Admission.BudgetClamped = m.budgetClamped.Load()

	out.Reliability.ObserveFailures = m.observeFailures.Load()
	out.Reliability.SaveFailures = m.saveFailures.Load()
	out.Reliability.SaveRetries = m.saveRetries.Load()
	out.Reliability.BreakerState, _, _ = s.brk.status()
	out.Reliability.BreakerTrips = m.breakerTrips.Load()
	out.Reliability.BreakerRecoveries = m.breakerRecoveries.Load()
	out.Reliability.BreakerRejected = m.breakerRejected.Load()
	out.Reliability.ChecksumRejectedLoads = m.checksumRejected.Load()
	return out
}
