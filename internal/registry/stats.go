package registry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// entry is one registered model plus its serving counters. All fields are
// updated with atomics or under the ring mutex, so recording is safe from any
// request goroutine.
type entry struct {
	s Scorer

	requests     atomic.Int64 // /v1/recommend responses served by this model
	nextRequests atomic.Int64 // /v1/next responses served by this model
	cacheHits    atomic.Int64
	notReady     atomic.Int64 // requests answered 503 (model not fitted)

	lat     LatencyWindow // recommend latencies
	nextLat LatencyWindow // next latencies

	shadowScored  atomic.Int64 // shadow scores completed for this model
	shadowErrors  atomic.Int64
	shadowOverlap atomic.Int64 // Σ top-K overlap, in millionths
	shadowExact   atomic.Int64 // shadow top-K exactly matched primary
}

func newEntry(s Scorer) *entry { return &entry{s: s} }

// WindowSize bounds a LatencyWindow. A bounded window keeps /metrics O(1) in
// memory over arbitrarily long uptimes while still tracking the current tail
// behaviour.
const WindowSize = 4096

// LatencyWindow keeps the last WindowSize request latencies in milliseconds.
// It is the one latency reservoir of the serving tier: a node holds one per
// endpoint, the registry one per model and request class.
type LatencyWindow struct {
	mu   sync.Mutex
	buf  [WindowSize]float64
	n    int
	next int
}

// Observe records one latency.
func (w *LatencyWindow) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	w.mu.Lock()
	w.buf[w.next] = ms
	w.next = (w.next + 1) % WindowSize
	if w.n < WindowSize {
		w.n++
	}
	w.mu.Unlock()
}

// Samples copies out the window's current contents in no particular order.
// The gateway scrapes these raw samples from every shard to compute
// cluster-wide percentiles — percentiles of merged samples, which per-shard
// percentiles cannot be combined into.
func (w *LatencyWindow) Samples() []float64 {
	w.mu.Lock()
	out := make([]float64, w.n)
	copy(out, w.buf[:w.n])
	w.mu.Unlock()
	return out
}

// Percentiles returns the nearest-rank p50/p95/p99 of samples (sorted in
// place): the smallest sample with at least that share of the window at or
// below it, so three samples report their median — not their minimum — as
// p50. Zeros when empty.
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

// ModelStats is the per-model metrics block exposed under /metrics.
type ModelStats struct {
	Name         string      `json:"name"`
	Roles        []string    `json:"roles"`
	Generation   uint64      `json:"generation"`
	Requests     int64       `json:"requests"`
	NextRequests int64       `json:"next_requests"`
	CacheHits    int64       `json:"cache_hits"`
	NotReady     int64       `json:"not_ready_503"`
	P50ms        float64     `json:"p50_ms"`
	P95ms        float64     `json:"p95_ms"`
	P99ms        float64     `json:"p99_ms"`
	NextP50ms    float64     `json:"next_p50_ms"`
	NextP95ms    float64     `json:"next_p95_ms"`
	NextP99ms    float64     `json:"next_p99_ms"`
	Shadow       ShadowStats `json:"shadow"`
}

// RoutingInfo is the routing-policy block exposed under /metrics.
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

// Stats snapshots per-model counters (registration order) and the routing
// configuration.
func (r *Registry) Stats() ([]ModelStats, RoutingInfo) {
	out := make([]ModelStats, 0, len(r.order))
	for _, name := range r.order {
		e := r.entries[name]
		ms := ModelStats{
			Name:         name,
			Roles:        r.rolesOf(name),
			Generation:   e.s.Generation(),
			Requests:     e.requests.Load(),
			NextRequests: e.nextRequests.Load(),
			CacheHits:    e.cacheHits.Load(),
			NotReady:     e.notReady.Load(),
		}
		ms.P50ms, ms.P95ms, ms.P99ms = Percentiles(e.lat.Samples())
		ms.NextP50ms, ms.NextP95ms, ms.NextP99ms = Percentiles(e.nextLat.Samples())
		scored := e.shadowScored.Load()
		ms.Shadow = ShadowStats{Scored: scored, Errors: e.shadowErrors.Load()}
		if scored > 0 {
			ms.Shadow.AgreementAvg = float64(e.shadowOverlap.Load()) / 1e6 / float64(scored)
			ms.Shadow.ExactFrac = float64(e.shadowExact.Load()) / float64(scored)
		}
		out = append(out, ms)
	}
	info := RoutingInfo{
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
	if next {
		e.nextRequests.Add(1)
	} else {
		e.requests.Add(1)
	}
	if cacheHit {
		e.cacheHits.Add(1)
		return
	}
	if next {
		e.nextLat.Observe(d)
	} else {
		e.lat.Observe(d)
	}
}

// RecordNotReady records a 503 answered because the named model is unfitted.
func (r *Registry) RecordNotReady(name string) {
	if e, ok := r.entries[name]; ok {
		e.notReady.Add(1)
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
