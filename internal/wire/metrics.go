package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is an event count that is its own JSON encoding: the process that
// owns it adds to it, /metrics encodes it as a plain number, and a scraper
// decodes that number back into a Counter it can sum with others. Never copy
// one by value (go vet's copylocks check enforces it).
type Counter struct{ atomic.Int64 }

func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

func (c *Counter) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("wire: counter %q is not an integer", b)
	}
	c.Store(n)
	return nil
}

// NumBuckets is the size of the one bucket table every Histogram shares:
// bucket i < 8 holds exactly i ns; above that each power of two is cut into
// eight equal buckets, so a bucket is at most 1/8 wider than its lower edge.
// The table ends at 2^36 ns (68.7 s); slower observations land in its last
// bucket.
const NumBuckets = 272

// Histogram is a latency distribution over the fixed table above. Because the
// table is the same everywhere, histograms add: the sum of two is the
// histogram of the union of their samples, which is how the gateway merges
// shards and how a scraper turns two cumulative scrapes into a window
// (subtract bucket by bucket). Observe is lock-free. It encodes sparsely as
// {"<upper edge in ns>": count, …} over the non-empty buckets; the edge is
// exclusive.
type Histogram struct{ counts [NumBuckets]atomic.Int64 }

// bucketOf returns the bucket holding d.
func bucketOf(d time.Duration) int {
	if d < 8 {
		return max(int(d), 0)
	}
	e := bits.Len64(uint64(d)) - 1
	return min((e-2)<<3|int(uint64(d)>>(e-3))&7, NumBuckets-1)
}

// bucketEdge returns bucket i's exclusive upper edge.
func bucketEdge(i int) time.Duration {
	if i < 8 {
		return time.Duration(i + 1)
	}
	return time.Duration(i&7+9) << (i>>3 - 1)
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) { h.counts[bucketOf(d)].Add(1) }

// Add folds o into h bucket by bucket.
func (h *Histogram) Add(o *Histogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
}

// Quantile returns the nearest-rank p-quantile (0 < p ≤ 1) as the upper edge
// of the bucket holding the ⌈p·n⌉-th smallest observation: never below the
// exact sample, at most one bucket width (1/8) above it. Zero when empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	var n, cum int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	// Buckets only grow, so a walk after the count always reaches the rank.
	rank := int64(math.Ceil(p * float64(n)))
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank && cum > 0 {
			return bucketEdge(i)
		}
	}
	return 0
}

// PercentilesMs returns the p50/p95/p99 quantiles in milliseconds — the three
// every latency block of the /metrics documents reports.
func (h *Histogram) PercentilesMs() (p50, p95, p99 float64) {
	ms := func(p float64) float64 { return float64(h.Quantile(p)) / float64(time.Millisecond) }
	return ms(0.50), ms(0.95), ms(0.99)
}

func (h *Histogram) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			if len(b) > 1 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(bucketEdge(i)), 10)
			b = append(b, '"', ':')
			b = strconv.AppendInt(b, n, 10)
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON replaces h with the encoded buckets. A key that is not an
// upper edge of the table and a negative count are errors, never clamped: the
// gateway sums whatever decodes.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var sparse map[int64]int64
	if err := json.Unmarshal(b, &sparse); err != nil {
		return fmt.Errorf("wire: histogram: %v", err)
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	for edge, n := range sparse {
		i := bucketOf(time.Duration(edge - 1))
		if edge <= 0 || int64(bucketEdge(i)) != edge {
			return fmt.Errorf("wire: histogram: %d ns is not a bucket edge", edge)
		}
		if n < 0 {
			return fmt.Errorf("wire: histogram: bucket %d ns has negative count %d", edge, n)
		}
		h.counts[i].Store(n)
	}
	return nil
}

// RouteStats is one request class of a /metrics document: arrivals (including
// the ones answered with an error), the latency histogram of the answered
// ones, and the three percentiles read off it at scrape time.
type RouteStats struct {
	Count   Counter   `json:"count"`
	P50ms   float64   `json:"p50_ms"`
	P95ms   float64   `json:"p95_ms"`
	P99ms   float64   `json:"p99_ms"`
	Latency Histogram `json:"latency_buckets_ns"`
}

// Summarize reads the percentiles off the histogram.
func (r *RouteStats) Summarize() { r.P50ms, r.P95ms, r.P99ms = r.Latency.PercentilesMs() }

// ShadowStats summarizes off-path scoring agreement for one model.
type ShadowStats struct {
	// Scored counts completed shadow scorings of this model.
	Scored int64 `json:"scored"`
	// Errors counts shadow scorings that failed (e.g. model not fitted).
	Errors int64 `json:"errors,omitempty"`
	// AgreementAvg is the mean top-K overlap fraction between the shadow's
	// ranking and the primary response ([0,1]).
	AgreementAvg float64 `json:"agreement_avg"`
	// ExactFrac is the fraction of shadow scorings whose top-K POI sets
	// matched the primary exactly.
	ExactFrac float64 `json:"exact_frac"`
}

// Add merges o into s: counts sum, the two fractions are weighted by each
// side's scored count so the result is the fraction over all scorings.
func (s *ShadowStats) Add(o ShadowStats) {
	if n := float64(s.Scored + o.Scored); n > 0 {
		s.AgreementAvg = (s.AgreementAvg*float64(s.Scored) + o.AgreementAvg*float64(o.Scored)) / n
		s.ExactFrac = (s.ExactFrac*float64(s.Scored) + o.ExactFrac*float64(o.Scored)) / n
	}
	s.Scored += o.Scored
	s.Errors += o.Errors
}

// ModelStats is the per-model block of a node's /metrics. Latencies are of
// scored (non-cached) responses only.
type ModelStats struct {
	Name         string      `json:"name"`
	Roles        []string    `json:"roles"`
	Generation   uint64      `json:"generation"`
	Requests     Counter     `json:"requests"`
	NextRequests Counter     `json:"next_requests"`
	CacheHits    Counter     `json:"cache_hits"`
	NotReady     Counter     `json:"not_ready_503"`
	P50ms        float64     `json:"p50_ms"`
	P95ms        float64     `json:"p95_ms"`
	P99ms        float64     `json:"p99_ms"`
	NextP50ms    float64     `json:"next_p50_ms"`
	NextP95ms    float64     `json:"next_p95_ms"`
	NextP99ms    float64     `json:"next_p99_ms"`
	Latency      Histogram   `json:"latency_buckets_ns"`
	NextLatency  Histogram   `json:"next_latency_buckets_ns"`
	Shadow       ShadowStats `json:"shadow"`
}

// Summarize reads both percentile triples off their histograms.
func (m *ModelStats) Summarize() {
	m.P50ms, m.P95ms, m.P99ms = m.Latency.PercentilesMs()
	m.NextP50ms, m.NextP95ms, m.NextP99ms = m.NextLatency.PercentilesMs()
}

// Add sums o's counters and histograms into m and merges the shadow block.
func (m *ModelStats) Add(o *ModelStats) {
	addCounters(reflect.ValueOf(m).Elem(), reflect.ValueOf(o).Elem())
	m.Shadow.Add(o.Shadow)
}

// RoutingInfo is the routing-policy block of a node's /metrics.
type RoutingInfo struct {
	Primary     string  `json:"primary"`
	ABModel     string  `json:"ab_model,omitempty"`
	ABFracB     float64 `json:"ab_frac_b,omitempty"`
	Shadow      string  `json:"shadow,omitempty"`
	NextDefault string  `json:"next_default,omitempty"`
	// ShadowDropped counts shadow scorings skipped because all shadow
	// slots were busy.
	ShadowDropped int64 `json:"shadow_dropped,omitempty"`
}

// GrowthStats are the open-world growth counters: user/POI rows added by
// observes, growth batches refused because the model is compact (503), and
// batches refused because growth is off or ids failed range checks (409). The
// gateway serves their cluster-wide sums under "growth"; grown POIs count
// per-shard row additions, so with openings copied to every shard the sum is
// roughly shards × distinct openings.
type GrowthStats struct {
	GrownUsers         Counter `json:"observe_grown_users"`
	GrownPOIs          Counter `json:"observe_grown_pois"`
	RejectedCompact    Counter `json:"observe_rejected_compact"`
	RejectedOutOfRange Counter `json:"observe_rejected_out_of_range"`
}

// ReplicationStats reports the snapshot-shipping pipeline: shipments this
// node served to replicas, and — on replicas — publishes applied, sync
// fetches, failures, shipments rejected by the CRC frame, plus the staleness
// view (the primary's newest advertised generation, how many generations this
// node trails it, and the configured bound).
type ReplicationStats struct {
	ShipmentsServed   Counter `json:"shipments_served"`
	Applied           Counter `json:"applied"`
	Syncs             Counter `json:"syncs"`
	Failures          Counter `json:"failures"`
	ChecksumRejected  Counter `json:"checksum_rejected"`
	PrimaryGeneration uint64  `json:"primary_generation,omitempty"`
	GenerationLag     uint64  `json:"generation_lag,omitempty"`
	MaxGenLag         uint64  `json:"max_generation_lag,omitempty"`
}

// CoalesceBucket is one batch-size bucket of the coalesce block, serialized
// as an ordered list so bucket order survives JSON encoding.
type CoalesceBucket struct {
	Bucket string  `json:"bucket"`
	Count  Counter `json:"count"`
}

// NodeMetrics is the document a serve node answers GET /metrics with, and the
// node's live storage for it: the request path adds to these very Counters
// and Histograms, a scrape fills the gauges (everything that is not a Counter
// or Histogram) and encodes. The gateway, loadgen and the replay harness
// decode the same type.
//
// Every Counter and Histogram is cumulative since process start, and so are
// the percentiles read off the histograms: a scraper that wants a window
// subtracts two scrapes, bucket by bucket. Percentiles are exact to one
// bucket width (≤ 1/8 above the true sample, never below), not to the sample.
type NodeMetrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Shard identifies this node inside a cluster; empty for standalone
	// deployments. Misrouted counts 421s from ring disagreements.
	Shard struct {
		Name      string  `json:"name,omitempty"`
		Role      string  `json:"role,omitempty"`
		Misrouted Counter `json:"misrouted"`
	} `json:"shard"`

	Recommend RouteStats `json:"recommend"`
	Next      RouteStats `json:"next"`
	Explain   RouteStats `json:"explain"`
	Observe   RouteStats `json:"observe"`

	BadRequests    Counter `json:"bad_requests"`
	Shed           Counter `json:"shed_503"` // admission, observe queue or open breaker
	DeadlineMissed Counter `json:"deadline_504"`
	InternalErrors Counter `json:"internal_500"`
	ModelNotFound  Counter `json:"model_404"`
	ModelNotReady  Counter `json:"model_not_ready_503"`

	// Routing and Models are the multi-model serving blocks: the active
	// routing policy (primary, A/B split, shadow) and one block per
	// registered model.
	Routing RoutingInfo   `json:"routing"`
	Models  []*ModelStats `json:"models"`

	Cache struct {
		Hits    Counter `json:"hits"`
		Misses  Counter `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Entries int     `json:"entries"`
	} `json:"cache"`

	Snapshot struct {
		Generation uint64  `json:"generation"`
		AgeSeconds float64 `json:"age_seconds"`
		Swaps      Counter `json:"swaps"`
		Saves      Counter `json:"saves"`
	} `json:"snapshot"`

	Replication ReplicationStats `json:"replication"`

	// Model reports the resident factor storage of the served snapshot: the
	// storage mode, total factor bytes (slabs + scales + core weights), bytes
	// per user — the capacity-planning number the compact modes exist to
	// shrink — and the snapshot's dimensions, which rise under open-world
	// growth.
	Model struct {
		Storage      string  `json:"storage"`
		FactorBytes  int64   `json:"factor_bytes"`
		BytesPerUser float64 `json:"bytes_per_user"`
		Users        int     `json:"users"`
		POIs         int     `json:"pois"`
	} `json:"model"`

	// Coalesce reports the request-batching pipeline, which concurrent
	// recommend misses join: how many batches ran, how many requests
	// travelled in them, the mean batch size, and a batch-size histogram (per
	// node; the gateway does not merge it). Zero batches means no miss ever
	// found another read scoring, or the node has no wait queue.
	Coalesce struct {
		Batches      Counter          `json:"batches"`
		Requests     Counter          `json:"requests"`
		AvgBatchSize float64          `json:"avg_batch_size"`
		BatchSizes   []CoalesceBucket `json:"batch_size_counts"`
	} `json:"coalesce"`

	ObserveStats struct {
		Applied     Counter `json:"applied"` // batches that swapped a snapshot
		Noop        Counter `json:"noop"`    // batches with no new cells
		CellsAdded  Counter `json:"cells_added"`
		QueueCap    int     `json:"queue_capacity"`
		QueueLen    int     `json:"queue_length"`
		GrowEnabled bool    `json:"grow_enabled"`
		GrowthStats
	} `json:"observe_pipeline"`

	Admission struct {
		Inflight    int64 `json:"inflight"`
		Queued      int64 `json:"queued"`
		MaxInflight int   `json:"max_inflight"`
		MaxQueue    int   `json:"max_queue"`
		// BudgetClamped counts requests whose X-Deadline-Budget header was
		// tighter than RequestTimeout — deadline propagation in action.
		BudgetClamped Counter `json:"deadline_budget_clamped"`
	} `json:"admission"`

	Reliability struct {
		ObserveFailures       Counter `json:"observe_failures"` // injected or real
		SaveFailures          Counter `json:"save_failures"`    // after all retries
		SaveRetries           Counter `json:"save_retries"`
		BreakerState          string  `json:"breaker_state"`
		BreakerTrips          Counter `json:"breaker_trips"`
		BreakerRecoveries     Counter `json:"breaker_recoveries"`
		BreakerRejected       Counter `json:"breaker_rejected"` // writes refused while open
		ChecksumRejectedLoads Counter `json:"checksum_rejected_loads"`
	} `json:"reliability"`
}

// Summarize reads the four routes' percentiles off their histograms (the
// model blocks are summarized by whoever owns them).
func (m *NodeMetrics) Summarize() {
	for _, r := range []*RouteStats{&m.Recommend, &m.Next, &m.Explain, &m.Observe} {
		r.Summarize()
	}
}

// Add sums every Counter and Histogram of o into m, and o's model blocks into
// m's by name (appending names m has not seen). Gauges are left alone: they
// describe one node at one instant and have no sum.
func (m *NodeMetrics) Add(o *NodeMetrics) {
	addCounters(reflect.ValueOf(m).Elem(), reflect.ValueOf(o).Elem())
	for _, om := range o.Models {
		if om == nil {
			continue
		}
		i := slices.IndexFunc(m.Models, func(mm *ModelStats) bool { return mm != nil && mm.Name == om.Name })
		if i < 0 {
			i = len(m.Models)
			m.Models = append(m.Models, &ModelStats{Name: om.Name})
		}
		m.Models[i].Add(om)
	}
}

// addCounters walks two values of one struct type and adds src's Counters
// and Histograms into dst's. Walking the declaration is what keeps a counter
// added later from being forgotten in the merge; slices (the model blocks,
// merged by name above) and plain fields are not touched.
func addCounters(dst, src reflect.Value) {
	switch d := dst.Addr().Interface().(type) {
	case *Counter:
		d.Add(src.Addr().Interface().(*Counter).Load())
	case *Histogram:
		d.Add(src.Addr().Interface().(*Histogram))
	default:
		if dst.Kind() == reflect.Struct {
			for i := range dst.NumField() {
				addCounters(dst.Field(i), src.Field(i))
			}
		}
	}
}

// Health is the body of a node's GET /healthz: "ok" (200), "degraded" (200 —
// reads still serve the last good snapshot; Reason says why) or "no snapshot"
// (503).
type Health struct {
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	AgeSeconds float64 `json:"snapshot_age_seconds"`
	// Shard and Role identify this node inside a cluster; empty standalone.
	Shard string `json:"shard,omitempty"`
	Role  string `json:"role,omitempty"`
	// GenLag is how many generations this node trails its primary's newest
	// advertised generation (replicas only; omitted when current).
	GenLag uint64 `json:"generation_lag,omitempty"`
	// Reason and Breaker appear when Status is "degraded": why the write
	// path is down, and the breaker state ("open" or "half_open").
	Reason  string `json:"reason,omitempty"`
	Breaker string `json:"breaker,omitempty"`
}
