package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"tcss/internal/registry"
)

// shardMetricsDoc is the subset of a shard's /metrics document the gateway
// merges. It deliberately mirrors serve's JSON rather than importing its
// types: the gateway only depends on the wire contract, and unknown fields
// added by future shard versions are ignored instead of breaking the merge.
type shardMetricsDoc struct {
	Shard struct {
		Name      string `json:"name"`
		Role      string `json:"role"`
		Misrouted int64  `json:"misrouted"`
	} `json:"shard"`
	Recommend struct {
		Count int64 `json:"count"`
	} `json:"recommend"`
	Explain struct {
		Count int64 `json:"count"`
	} `json:"explain"`
	Next struct {
		Count int64 `json:"count"`
	} `json:"next"`
	Observe struct {
		Count int64 `json:"count"`
	} `json:"observe"`
	ObservePipeline struct {
		GrownUsers         int64 `json:"observe_grown_users"`
		GrownPOIs          int64 `json:"observe_grown_pois"`
		RejectedCompact    int64 `json:"observe_rejected_compact"`
		RejectedOutOfRange int64 `json:"observe_rejected_out_of_range"`
	} `json:"observe_pipeline"`
	BadRequests    int64 `json:"bad_requests"`
	Shed           int64 `json:"shed_503"`
	DeadlineMissed int64 `json:"deadline_504"`
	InternalErrors int64 `json:"internal_500"`
	Snapshot       struct {
		Generation uint64 `json:"generation"`
	} `json:"snapshot"`
	Replication struct {
		ShipmentsServed  int64 `json:"shipments_served"`
		Applied          int64 `json:"applied"`
		Syncs            int64 `json:"syncs"`
		Failures         int64 `json:"failures"`
		ChecksumRejected int64 `json:"checksum_rejected"`
	} `json:"replication"`
	Models  []shardModelDoc `json:"models"`
	Windows *struct {
		RecommendMs []float64 `json:"recommend_ms"`
		ExplainMs   []float64 `json:"explain_ms"`
		NextMs      []float64 `json:"next_ms"`
		ObserveMs   []float64 `json:"observe_ms"`
	} `json:"windows"`
}

// shardModelDoc is one entry of a shard's multi-model block, again mirroring
// the wire contract instead of importing serve/registry types.
type shardModelDoc struct {
	Name         string `json:"name"`
	Generation   uint64 `json:"generation"`
	Requests     int64  `json:"requests"`
	NextRequests int64  `json:"next_requests"`
	CacheHits    int64  `json:"cache_hits"`
	NotReady     int64  `json:"not_ready_503"`
	Shadow       struct {
		Scored       int64   `json:"scored"`
		Errors       int64   `json:"errors"`
		AgreementAvg float64 `json:"agreement_avg"`
		ExactFrac    float64 `json:"exact_frac"`
	} `json:"shadow"`
}

// mergedModel is one model's cluster-wide rollup: counters sum across
// endpoints; shadow agreement fractions are weighted by each endpoint's
// scored count so the merge equals the fraction over all scorings.
type mergedModel struct {
	Name         string  `json:"name"`
	Requests     int64   `json:"requests"`
	NextRequests int64   `json:"next_requests"`
	CacheHits    int64   `json:"cache_hits"`
	NotReady     int64   `json:"not_ready_503"`
	ShadowScored int64   `json:"shadow_scored"`
	ShadowErrors int64   `json:"shadow_errors"`
	AgreementAvg float64 `json:"shadow_agreement_avg"`
	ExactFrac    float64 `json:"shadow_exact_frac"`
}

// routeAgg is one request class merged across the cluster: summed counts and
// percentiles computed over the concatenation of every endpoint's raw latency
// window — per-shard percentiles cannot be merged, raw samples can.
type routeAgg struct {
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

// endpointMetrics is the per-endpoint breakdown in the merged document.
type endpointMetrics struct {
	Shard      string `json:"shard"`
	Role       string `json:"role"`
	Endpoint   string `json:"endpoint"`
	Generation uint64 `json:"generation"`
	Recommend  int64  `json:"recommend"`
	Explain    int64  `json:"explain"`
	Next       int64  `json:"next"`
	Observe    int64  `json:"observe"`
	Misrouted  int64  `json:"misrouted"`
}

// clusterMetrics is the document served by the gateway's GET /metrics.
type clusterMetrics struct {
	Shards      int      `json:"shards"`
	Endpoints   int      `json:"endpoints"`
	Unreachable []string `json:"unreachable,omitempty"`

	Recommend routeAgg `json:"recommend"`
	Explain   routeAgg `json:"explain"`
	Next      routeAgg `json:"next"`
	Observe   routeAgg `json:"observe"`

	Models []mergedModel `json:"models,omitempty"`

	Totals struct {
		BadRequests    int64 `json:"bad_requests"`
		Shed           int64 `json:"shed_503"`
		DeadlineMissed int64 `json:"deadline_504"`
		InternalErrors int64 `json:"internal_500"`
		Misrouted      int64 `json:"misrouted"`
	} `json:"totals"`

	// Growth sums the shards' open-world growth counters. GrownPOIs counts
	// per-shard row additions, so with POI openings duplicated to every
	// shard it is roughly shards × the number of distinct openings.
	Growth struct {
		GrownUsers         int64 `json:"observe_grown_users"`
		GrownPOIs          int64 `json:"observe_grown_pois"`
		RejectedCompact    int64 `json:"observe_rejected_compact"`
		RejectedOutOfRange int64 `json:"observe_rejected_out_of_range"`
	} `json:"growth"`

	Replication struct {
		ShipmentsServed  int64 `json:"shipments_served"`
		Applied          int64 `json:"applied"`
		Syncs            int64 `json:"syncs"`
		Failures         int64 `json:"failures"`
		ChecksumRejected int64 `json:"checksum_rejected"`
	} `json:"replication"`

	Gateway struct {
		Requests       int64 `json:"requests"`
		Failovers      int64 `json:"failovers"`
		BackendErrors  int64 `json:"backend_errors"`
		ObserveFanouts int64 `json:"observe_fanouts"`
		// Resilience counters: token-charged retries, retries refused by the
		// drained token bucket, hedged attempts fired and won, and reads that
		// 504ed on a drained deadline budget.
		Retries              int64 `json:"retries"`
		RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
		Hedges               int64 `json:"hedges"`
		HedgeWins            int64 `json:"hedge_wins"`
		DeadlineMissed       int64 `json:"deadline_504"`
	} `json:"gateway"`

	PerEndpoint []endpointMetrics `json:"per_endpoint"`
}

// endpointRole labels an endpoint by its position in the shard set.
type taggedEndpoint struct {
	shard string
	role  string
	url   string
}

func (g *Gateway) allEndpoints() []taggedEndpoint {
	var eps []taggedEndpoint
	for _, set := range g.sets {
		eps = append(eps, taggedEndpoint{shard: set.Name, role: "primary", url: set.Primary})
		for _, rep := range set.Replicas {
			eps = append(eps, taggedEndpoint{shard: set.Name, role: "replica", url: rep})
		}
	}
	return eps
}

// fetchJSON GETs path from every endpoint concurrently, decoding each body
// into a value produced by newDoc; failed endpoints report err instead.
type endpointResult[T any] struct {
	ep  taggedEndpoint
	doc T
	err error
}

func fetchAll[T any](ctx context.Context, g *Gateway, path string) []endpointResult[T] {
	eps := g.allEndpoints()
	out := make([]endpointResult[T], len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep taggedEndpoint) {
			defer wg.Done()
			out[i].ep = ep
			// Bound each fan-out fetch by the per-try timeout so one hung
			// endpoint delays the merge, not wedges it.
			fctx, cancel := context.WithTimeout(ctx, g.opts.PerTryTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(fctx, http.MethodGet, ep.url+path, nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := g.opts.Client.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&out[i].doc); err != nil {
				out[i].err = fmt.Errorf("decoding %s%s: %w", ep.url, path, err)
			}
		}(i, ep)
	}
	wg.Wait()
	return out
}

// serveMetrics fans /metrics?window=1 to every endpoint and merges: counters
// sum, latency percentiles are recomputed over the concatenated raw windows,
// and the per-endpoint breakdown keeps each node individually inspectable.
func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	g.met.scrapes.Add(1)
	results := fetchAll[shardMetricsDoc](r.Context(), g, "/metrics?window=1")

	var out clusterMetrics
	out.Shards = len(g.sets)
	out.Endpoints = len(results)
	var recWin, expWin, nextWin, obsWin []float64
	modelAgg := make(map[string]*mergedModel)
	modelWeight := make(map[string]struct{ agree, exact float64 })
	for _, res := range results {
		if res.err != nil {
			out.Unreachable = append(out.Unreachable, res.ep.url)
			continue
		}
		d := res.doc
		out.Recommend.Count += d.Recommend.Count
		out.Explain.Count += d.Explain.Count
		out.Next.Count += d.Next.Count
		out.Observe.Count += d.Observe.Count
		for _, md := range d.Models {
			mm, ok := modelAgg[md.Name]
			if !ok {
				mm = &mergedModel{Name: md.Name}
				modelAgg[md.Name] = mm
			}
			mm.Requests += md.Requests
			mm.NextRequests += md.NextRequests
			mm.CacheHits += md.CacheHits
			mm.NotReady += md.NotReady
			mm.ShadowScored += md.Shadow.Scored
			mm.ShadowErrors += md.Shadow.Errors
			w := modelWeight[md.Name]
			w.agree += md.Shadow.AgreementAvg * float64(md.Shadow.Scored)
			w.exact += md.Shadow.ExactFrac * float64(md.Shadow.Scored)
			modelWeight[md.Name] = w
		}
		out.Totals.BadRequests += d.BadRequests
		out.Totals.Shed += d.Shed
		out.Totals.DeadlineMissed += d.DeadlineMissed
		out.Totals.InternalErrors += d.InternalErrors
		out.Totals.Misrouted += d.Shard.Misrouted
		out.Growth.GrownUsers += d.ObservePipeline.GrownUsers
		out.Growth.GrownPOIs += d.ObservePipeline.GrownPOIs
		out.Growth.RejectedCompact += d.ObservePipeline.RejectedCompact
		out.Growth.RejectedOutOfRange += d.ObservePipeline.RejectedOutOfRange
		out.Replication.ShipmentsServed += d.Replication.ShipmentsServed
		out.Replication.Applied += d.Replication.Applied
		out.Replication.Syncs += d.Replication.Syncs
		out.Replication.Failures += d.Replication.Failures
		out.Replication.ChecksumRejected += d.Replication.ChecksumRejected
		if d.Windows != nil {
			recWin = append(recWin, d.Windows.RecommendMs...)
			expWin = append(expWin, d.Windows.ExplainMs...)
			nextWin = append(nextWin, d.Windows.NextMs...)
			obsWin = append(obsWin, d.Windows.ObserveMs...)
		}
		out.PerEndpoint = append(out.PerEndpoint, endpointMetrics{
			Shard:      res.ep.shard,
			Role:       res.ep.role,
			Endpoint:   res.ep.url,
			Generation: d.Snapshot.Generation,
			Recommend:  d.Recommend.Count,
			Explain:    d.Explain.Count,
			Next:       d.Next.Count,
			Observe:    d.Observe.Count,
			Misrouted:  d.Shard.Misrouted,
		})
	}
	out.Recommend.P50ms, out.Recommend.P95ms, out.Recommend.P99ms = registry.Percentiles(recWin)
	out.Explain.P50ms, out.Explain.P95ms, out.Explain.P99ms = registry.Percentiles(expWin)
	out.Next.P50ms, out.Next.P95ms, out.Next.P99ms = registry.Percentiles(nextWin)
	out.Observe.P50ms, out.Observe.P95ms, out.Observe.P99ms = registry.Percentiles(obsWin)
	names := make([]string, 0, len(modelAgg))
	for name := range modelAgg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mm := modelAgg[name]
		if mm.ShadowScored > 0 {
			w := modelWeight[name]
			mm.AgreementAvg = w.agree / float64(mm.ShadowScored)
			mm.ExactFrac = w.exact / float64(mm.ShadowScored)
		}
		out.Models = append(out.Models, *mm)
	}
	out.Gateway.Requests = g.met.requests.Load()
	out.Gateway.Failovers = g.met.failovers.Load()
	out.Gateway.BackendErrors = g.met.backendErrors.Load()
	out.Gateway.ObserveFanouts = g.met.observeFanouts.Load()
	out.Gateway.Retries = g.met.retries.Load()
	out.Gateway.RetryBudgetExhausted = g.met.retryExhausted.Load()
	out.Gateway.Hedges = g.met.hedges.Load()
	out.Gateway.HedgeWins = g.met.hedgeWins.Load()
	out.Gateway.DeadlineMissed = g.met.deadlineMissed.Load()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&out)
}

// shardHealthDoc is the subset of a node's /healthz the gateway rolls up.
type shardHealthDoc struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Reason     string `json:"reason"`
}

type endpointHealth struct {
	Endpoint   string `json:"endpoint"`
	Role       string `json:"role"`
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Reason     string `json:"reason,omitempty"`
}

type shardHealth struct {
	Shard     string           `json:"shard"`
	Status    string           `json:"status"`
	Endpoints []endpointHealth `json:"endpoints"`
}

type clusterHealth struct {
	Status  string        `json:"status"`
	Shards  []shardHealth `json:"shards"`
	Reasons []string      `json:"reasons,omitempty"`
}

// serveHealthz fans /healthz to every endpoint and rolls up: a shard is "ok"
// when its primary is, "degraded" when the primary is degraded or reads have
// failed over to a replica, and "down" when no endpoint can serve. The
// cluster is as healthy as its worst shard; a down shard makes the rollup
// 503 because part of the keyspace is unservable.
func (g *Gateway) serveHealthz(w http.ResponseWriter, r *http.Request) {
	results := fetchAll[shardHealthDoc](r.Context(), g, "/healthz")
	byShard := make(map[string][]endpointResult[shardHealthDoc])
	for _, res := range results {
		byShard[res.ep.shard] = append(byShard[res.ep.shard], res)
	}

	out := clusterHealth{Status: "ok"}
	worst := 0 // 0 ok, 1 degraded, 2 down
	for _, set := range g.sets {
		sh := shardHealth{Shard: set.Name, Status: "ok"}
		var primaryOK, anyOK bool
		var primaryReason string
		for _, res := range byShard[set.Name] {
			eh := endpointHealth{Endpoint: res.ep.url, Role: res.ep.role}
			if res.err != nil {
				eh.Status = "unreachable"
				eh.Reason = res.err.Error()
			} else {
				eh.Status = res.doc.Status
				eh.Generation = res.doc.Generation
				eh.Reason = res.doc.Reason
			}
			healthy := eh.Status == "ok"
			if res.ep.role == "primary" {
				primaryOK = healthy
				if !healthy {
					primaryReason = eh.Status
					if eh.Reason != "" {
						primaryReason += ": " + eh.Reason
					}
				}
			}
			// A degraded node still serves reads from its last snapshot.
			if healthy || eh.Status == "degraded" {
				anyOK = true
			}
			sh.Endpoints = append(sh.Endpoints, eh)
		}
		switch {
		case primaryOK:
		case anyOK:
			sh.Status = "degraded"
			out.Reasons = append(out.Reasons,
				fmt.Sprintf("shard %q: primary %s, serving from remaining endpoints", set.Name, primaryReason))
			if worst < 1 {
				worst = 1
			}
		default:
			sh.Status = "down"
			out.Reasons = append(out.Reasons,
				fmt.Sprintf("shard %q: no endpoint can serve (primary %s)", set.Name, primaryReason))
			worst = 2
		}
		out.Shards = append(out.Shards, sh)
	}
	status := http.StatusOK
	switch worst {
	case 1:
		out.Status = "degraded"
	case 2:
		out.Status = "down"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&out)
}
