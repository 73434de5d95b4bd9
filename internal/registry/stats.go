package registry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"tcss/internal/wire"
)

// entry is one registered model plus its serving counters: stats is the
// model's live block of the /metrics document (the request path adds to its
// Counters and Histograms), the shadow atomics are the sums its shadow block
// is derived from. Recording is safe from any request goroutine.
type entry struct {
	s     Scorer
	stats wire.ModelStats

	shadowScored  atomic.Int64 // shadow scores completed for this model
	shadowErrors  atomic.Int64
	shadowOverlap atomic.Int64 // Σ top-K overlap, in millionths
	shadowExact   atomic.Int64 // shadow top-K exactly matched primary
}

func newEntry(s Scorer) *entry { return &entry{s: s} }

// Percentiles returns the nearest-rank p50/p95/p99 of samples (sorted in
// place): the smallest sample with at least that share of the samples at or
// below it, so three samples report their median — not their minimum — as
// p50. Zeros when empty. wire.Histogram.Quantile applies the same rule to
// buckets.
func Percentiles(samples []float64) (p50, p95, p99 float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Float64s(samples)
	// For 0 < p < 1 and n ≥ 1 the rank ⌈p·n⌉ always lies in [1, n].
	at := func(p float64) float64 { return samples[int(math.Ceil(p*float64(n)))-1] }
	return at(0.50), at(0.95), at(0.99)
}

// Stats returns every model's block of the /metrics document (registration
// order) and the routing configuration. The blocks are the live ones: Stats
// writes their gauges (roles, generation, percentiles, shadow summary) in
// place, so callers must not scrape concurrently — serve holds its scrape
// lock across Stats and the encoding.
func (r *Registry) Stats() ([]*wire.ModelStats, wire.RoutingInfo) {
	out := make([]*wire.ModelStats, 0, len(r.order))
	for _, name := range r.order {
		e := r.entries[name]
		ms := &e.stats
		ms.Name, ms.Roles, ms.Generation = name, r.rolesOf(name), e.s.Generation()
		ms.Summarize()
		scored := e.shadowScored.Load()
		ms.Shadow = wire.ShadowStats{Scored: scored, Errors: e.shadowErrors.Load()}
		if scored > 0 {
			ms.Shadow.AgreementAvg = float64(e.shadowOverlap.Load()) / 1e6 / float64(scored)
			ms.Shadow.ExactFrac = float64(e.shadowExact.Load()) / float64(scored)
		}
		out = append(out, ms)
	}
	info := wire.RoutingInfo{
		Primary:       r.primary,
		ABModel:       r.abB,
		ABFracB:       r.abFrac,
		Shadow:        r.shadow,
		NextDefault:   r.nextDef,
		ShadowDropped: r.shadowDropped.Load(),
	}
	return out, info
}

func (r *Registry) rolesOf(name string) []string {
	roles := []string{}
	if name == r.primary {
		roles = append(roles, "primary")
	}
	if name == r.abB {
		roles = append(roles, "ab-b")
	}
	if name == r.shadow {
		roles = append(roles, "shadow")
	}
	if name == r.nextDef {
		roles = append(roles, "next-default")
	}
	if len(roles) == 0 {
		roles = append(roles, "registered")
	}
	return roles
}

// RecordServe records one served response for the named model. next selects
// the /v1/next counters, cacheHit marks responses answered from the response
// cache (their latency is not recorded against the model — the model did not
// score).
func (r *Registry) RecordServe(name string, next, cacheHit bool, d time.Duration) {
	e, ok := r.entries[name]
	if !ok {
		return
	}
	requests, lat := &e.stats.Requests, &e.stats.Latency
	if next {
		requests, lat = &e.stats.NextRequests, &e.stats.NextLatency
	}
	requests.Add(1)
	if cacheHit {
		e.stats.CacheHits.Add(1)
		return
	}
	lat.Observe(d)
}

// RecordNotReady records a 503 answered because the named model is unfitted.
func (r *Registry) RecordNotReady(name string) {
	if e, ok := r.entries[name]; ok {
		e.stats.NotReady.Add(1)
	}
}

// RecordShadow records one completed shadow scoring of the named model with
// the given top-K overlap fraction against the primary response.
func (r *Registry) RecordShadow(name string, overlap float64, exact bool) {
	e, ok := r.entries[name]
	if !ok {
		return
	}
	e.shadowScored.Add(1)
	e.shadowOverlap.Add(int64(overlap * 1e6))
	if exact {
		e.shadowExact.Add(1)
	}
}

// RecordShadowError records a failed shadow scoring of the named model.
func (r *Registry) RecordShadowError(name string) {
	if e, ok := r.entries[name]; ok {
		e.shadowErrors.Add(1)
	}
}
