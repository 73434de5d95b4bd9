package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"

	"tcss/internal/wire"
)

// mergedModel is one model's cluster-wide rollup: counters and latency
// histograms sum across endpoints; shadow agreement fractions are weighted by
// each endpoint's scored count so the merge equals the fraction over all
// scorings.
type mergedModel struct {
	Name         string          `json:"name"`
	Requests     int64           `json:"requests"`
	NextRequests int64           `json:"next_requests"`
	CacheHits    int64           `json:"cache_hits"`
	NotReady     int64           `json:"not_ready_503"`
	ShadowScored int64           `json:"shadow_scored"`
	ShadowErrors int64           `json:"shadow_errors"`
	AgreementAvg float64         `json:"shadow_agreement_avg"`
	ExactFrac    float64         `json:"shadow_exact_frac"`
	Latency      *wire.Histogram `json:"latency_buckets_ns"`
	NextLatency  *wire.Histogram `json:"next_latency_buckets_ns"`
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

// clusterMetrics is the document served by the gateway's GET /metrics: the
// sum of every reachable endpoint's wire.NodeMetrics, projected into the
// cluster's own shape. Route, growth and replication blocks are the summed
// node blocks themselves; percentiles are read off the summed histograms, so
// like every counter here they are cumulative since each node's start and
// exact to one bucket width (see wire.NodeMetrics).
type clusterMetrics struct {
	Shards      int      `json:"shards"`
	Endpoints   int      `json:"endpoints"`
	Unreachable []string `json:"unreachable,omitempty"`

	Recommend *wire.RouteStats `json:"recommend"`
	Explain   *wire.RouteStats `json:"explain"`
	Next      *wire.RouteStats `json:"next"`
	Observe   *wire.RouteStats `json:"observe"`

	Models []mergedModel `json:"models,omitempty"`

	Totals struct {
		BadRequests    int64 `json:"bad_requests"`
		Shed           int64 `json:"shed_503"`
		DeadlineMissed int64 `json:"deadline_504"`
		InternalErrors int64 `json:"internal_500"`
		Misrouted      int64 `json:"misrouted"`
	} `json:"totals"`

	Growth      *wire.GrowthStats      `json:"growth"`
	Replication *wire.ReplicationStats `json:"replication"`
	Gateway     *gatewayStats          `json:"gateway"`

	PerEndpoint []endpointMetrics `json:"per_endpoint"`
}

// taggedEndpoint labels an endpoint by its position in the shard set.
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

// endpointResult is one endpoint's answer to a fan-out fetch.
type endpointResult[T any] struct {
	ep  taggedEndpoint
	doc T
	err error
}

// maxScrapeBody bounds the /metrics or /healthz body the gateway will decode
// from one endpoint; a node's document is a few KB.
const maxScrapeBody = 1 << 20

// fetchAll GETs path from every endpoint concurrently and decodes each body
// into a T. An endpoint that cannot be reached, answers with a status not in
// accept, or sends a body that does not decode reports err instead.
func fetchAll[T any](ctx context.Context, g *Gateway, path string, accept ...int) []endpointResult[T] {
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
			if !slices.Contains(accept, resp.StatusCode) {
				out[i].err = fmt.Errorf("GET %s%s: %s", ep.url, path, resp.Status)
				return
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBody)).Decode(&out[i].doc); err != nil {
				out[i].err = fmt.Errorf("decoding %s%s: %w", ep.url, path, err)
			}
		}(i, ep)
	}
	wg.Wait()
	return out
}

// serveMetrics fans /metrics to every endpoint and merges by addition:
// counters and latency histograms sum, percentiles are read off the summed
// histograms, and the per-endpoint breakdown keeps each node individually
// inspectable. An endpoint that does not answer 200 is unreachable — an error
// envelope is not a document of zeros.
func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	results := fetchAll[wire.NodeMetrics](r.Context(), g, "/metrics", http.StatusOK)

	var sum wire.NodeMetrics
	out := clusterMetrics{
		Shards: len(g.sets), Endpoints: len(results),
		Recommend: &sum.Recommend, Explain: &sum.Explain, Next: &sum.Next, Observe: &sum.Observe,
		Growth: &sum.ObserveStats.GrowthStats, Replication: &sum.Replication, Gateway: &g.met,
	}
	for i := range results {
		res := &results[i]
		if res.err != nil {
			out.Unreachable = append(out.Unreachable, res.ep.url)
			continue
		}
		d := &res.doc
		sum.Add(d)
		out.PerEndpoint = append(out.PerEndpoint, endpointMetrics{
			Shard:      res.ep.shard,
			Role:       res.ep.role,
			Endpoint:   res.ep.url,
			Generation: d.Snapshot.Generation,
			Recommend:  d.Recommend.Count.Load(),
			Explain:    d.Explain.Count.Load(),
			Next:       d.Next.Count.Load(),
			Observe:    d.Observe.Count.Load(),
			Misrouted:  d.Shard.Misrouted.Load(),
		})
	}
	sum.Summarize()
	sort.Slice(sum.Models, func(i, j int) bool { return sum.Models[i].Name < sum.Models[j].Name })
	for _, m := range sum.Models {
		out.Models = append(out.Models, mergedModel{
			Name:         m.Name,
			Requests:     m.Requests.Load(),
			NextRequests: m.NextRequests.Load(),
			CacheHits:    m.CacheHits.Load(),
			NotReady:     m.NotReady.Load(),
			ShadowScored: m.Shadow.Scored,
			ShadowErrors: m.Shadow.Errors,
			AgreementAvg: m.Shadow.AgreementAvg,
			ExactFrac:    m.Shadow.ExactFrac,
			Latency:      &m.Latency,
			NextLatency:  &m.NextLatency,
		})
	}
	out.Totals.BadRequests = sum.BadRequests.Load()
	out.Totals.Shed = sum.Shed.Load()
	out.Totals.DeadlineMissed = sum.DeadlineMissed.Load()
	out.Totals.InternalErrors = sum.InternalErrors.Load()
	out.Totals.Misrouted = sum.Shard.Misrouted.Load()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&out)
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
	// A node without a snapshot answers 503 with a body that says so.
	results := fetchAll[wire.Health](r.Context(), g, "/healthz", http.StatusOK, http.StatusServiceUnavailable)
	byShard := make(map[string][]endpointResult[wire.Health])
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
