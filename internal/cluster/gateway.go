package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tcss/internal/wire"
)

// ShardSet names one shard and its endpoints: the writable primary plus zero
// or more read-only replicas fed by snapshot shipping, all as base URLs.
type ShardSet struct {
	Name     string
	Primary  string
	Replicas []string
}

// DeadlineBudgetHeader carries a request's remaining deadline budget in
// integer milliseconds. The gateway stamps each backend hop with the budget
// that hop may spend; serve-side admission clamps its per-request timeout to
// it, so a backend never keeps working on a request whose gateway-side
// deadline has already passed.
const DeadlineBudgetHeader = wire.DeadlineBudgetHeader

// GatewayOptions tunes the gateway; the zero value is production-ready.
type GatewayOptions struct {
	// Vnodes is the ring's virtual-node count per shard (DefaultVnodes if 0).
	Vnodes int
	// Client issues all backend requests; http.DefaultClient when nil. Hung
	// backends are bounded by the per-hop deadlines the gateway derives from
	// each request's budget, not by a client-wide timeout.
	Client *http.Client
	// DownCooldown is how long a failed endpoint is skipped before being
	// retried (2s when zero). Failover still works inside the cooldown — the
	// mark only changes which endpoint is tried first.
	DownCooldown time.Duration
	// ReadBudget is the total deadline budget of a read that arrives without
	// an X-Deadline-Budget header (2s when zero). The budget spans every
	// failover attempt; when it drains the gateway answers 504.
	ReadBudget time.Duration
	// PerTryTimeout caps one backend attempt (1s when zero, always clamped
	// to the remaining budget), so a hung endpoint costs one hop, not the
	// whole budget.
	PerTryTimeout time.Duration
	// RetryRate and RetryBurst shape the token-bucket retry budget charged
	// for every failover or hedge attempt beyond a request's first. A
	// flapping shard drains the bucket and further retries are refused with
	// 503 instead of amplifying into a retry storm. Defaults: 10 tokens/s,
	// burst 20.
	RetryRate  float64
	RetryBurst float64
	// Hedge enables hedged reads for GET /v1/recommend: if the first
	// candidate hasn't answered within HedgeDelay (30ms when zero), a second
	// candidate is fired and the first byte-valid response wins; the loser is
	// cancelled when the handler returns. Hedge attempts pay a retry token.
	Hedge      bool
	HedgeDelay time.Duration
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

// gatewayStats is the "gateway" block of the cluster /metrics document and
// the live storage of its counters: what the gateway itself does, next to
// the merged shard counters.
type gatewayStats struct {
	Requests       wire.Counter `json:"requests"`        // read requests routed
	Failovers      wire.Counter `json:"failovers"`       // reads answered by a non-first candidate
	BackendErrors  wire.Counter `json:"backend_errors"`  // candidate attempts that failed
	ObserveFanouts wire.Counter `json:"observe_fanouts"` // observe batches split across shards
	// Resilience counters: token-charged retries (attempts beyond a request's
	// first), retries refused by the drained token bucket, hedged attempts
	// fired and won, and reads that 504ed on a drained deadline budget.
	Retries              wire.Counter `json:"retries"`
	RetryBudgetExhausted wire.Counter `json:"retry_budget_exhausted"`
	Hedges               wire.Counter `json:"hedges"`
	HedgeWins            wire.Counter `json:"hedge_wins"`
	DeadlineMissed       wire.Counter `json:"deadline_504"`
}

// retryBudget is a token bucket charged for every failover or hedge attempt:
// tokens refill at rate per second up to burst, and an empty bucket refuses
// the retry — bounding cluster-wide retry amplification no matter how many
// endpoints flap.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64
	last   time.Time
}

func (b *retryBudget) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Gateway routes the serving API across a sharded cluster: reads go to the
// user's owning shard (replica failover on primary failure), observes are
// split by ownership and fanned to primaries, /metrics and /healthz fan out
// to every endpoint and merge. It holds no model state — only the ring and
// the endpoint table — so any number of gateways can front the same cluster.
type Gateway struct {
	ring   *Ring
	sets   []ShardSet
	byName map[string]*ShardSet
	opts   GatewayOptions // every zero field replaced by its documented default
	mux    *http.ServeMux
	met    gatewayStats
	retry  retryBudget

	mu   sync.Mutex
	down map[string]time.Time // endpoint base URL -> retry-after instant
	gens map[string]uint64    // endpoint base URL -> last generation seen
}

// NewGateway builds a gateway over the given shard sets. Ring placement uses
// only shard names, so every gateway and shard configured with the same names
// agrees on ownership regardless of listing order.
func NewGateway(sets []ShardSet, opts GatewayOptions) (*Gateway, error) {
	names := make([]string, len(sets))
	for i, set := range sets {
		if set.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %q has no primary endpoint", set.Name)
		}
		names[i] = set.Name
	}
	ring, err := NewRing(names, opts.Vnodes)
	if err != nil {
		return nil, err
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.DownCooldown <= 0 {
		opts.DownCooldown = 2 * time.Second
	}
	if opts.ReadBudget <= 0 {
		opts.ReadBudget = 2 * time.Second
	}
	if opts.PerTryTimeout <= 0 {
		opts.PerTryTimeout = time.Second
	}
	if opts.HedgeDelay <= 0 {
		opts.HedgeDelay = 30 * time.Millisecond
	}
	if opts.RetryRate <= 0 {
		opts.RetryRate = 10
	}
	if opts.RetryBurst <= 0 {
		opts.RetryBurst = 20
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	g := &Gateway{
		ring:   ring,
		sets:   append([]ShardSet(nil), sets...),
		byName: make(map[string]*ShardSet, len(sets)),
		opts:   opts,
		retry:  retryBudget{tokens: opts.RetryBurst, burst: opts.RetryBurst, rate: opts.RetryRate},
		down:   make(map[string]time.Time),
		gens:   make(map[string]uint64),
	}
	for i := range g.sets {
		g.byName[g.sets[i].Name] = &g.sets[i]
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/recommend", g.serveRead)
	mux.HandleFunc("GET /v1/explain", g.serveRead)
	mux.HandleFunc("POST /v1/next", g.serveRead)
	mux.HandleFunc("POST /v1/observe", g.serveObserve)
	mux.HandleFunc("GET /metrics", g.serveMetrics)
	mux.HandleFunc("GET /healthz", g.serveHealthz)
	g.mux = mux
	return g, nil
}

// Ring exposes the gateway's ring (tests assert routing against it).
func (g *Gateway) Ring() *Ring { return g.ring }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

func (g *Gateway) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wire.Error{Error: fmt.Sprintf(format, args...)})
}

// markDown records an endpoint failure; the endpoint is deprioritized until
// the cooldown elapses. Expired marks are swept on every call so the map
// stays bounded by the live endpoint count across long deployments with
// churning endpoints.
func (g *Gateway) markDown(endpoint string) {
	now := g.opts.Now()
	g.mu.Lock()
	for ep, until := range g.down {
		if !now.Before(until) {
			delete(g.down, ep)
		}
	}
	g.down[endpoint] = now.Add(g.opts.DownCooldown)
	g.mu.Unlock()
}

// isDown reports whether an endpoint is inside its failure cooldown, deleting
// the mark once it has expired.
func (g *Gateway) isDown(endpoint string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	until, ok := g.down[endpoint]
	if ok && !g.opts.Now().Before(until) {
		delete(g.down, endpoint)
		return false
	}
	return ok
}

// downLen reports the current down-mark count (tests assert the sweep).
func (g *Gateway) downLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.down)
}

// noteGen records the snapshot generation an endpoint last reported, feeding
// the freshness preference in candidates.
func (g *Gateway) noteGen(endpoint string, gen uint64) {
	g.mu.Lock()
	if gen > g.gens[endpoint] {
		g.gens[endpoint] = gen
	}
	g.mu.Unlock()
}

func (g *Gateway) genOf(endpoint string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gens[endpoint]
}

// candidates orders a shard's endpoints for a read: healthy endpoints first
// — freshest known generation leading, the primary winning ties (the stable
// sort keeps the primary-then-replicas base order) — then endpoints inside
// their failure cooldown moved to the back, never dropped, so a fully-marked
// shard still gets tried rather than blacking out on stale marks. Preferring
// fresher backends means a replica lagging behind its primary only serves
// when nothing fresher answers.
func (g *Gateway) candidates(set *ShardSet) []string {
	all := make([]string, 0, 1+len(set.Replicas))
	all = append(all, set.Primary)
	all = append(all, set.Replicas...)
	up := all[:0:len(all)]
	var cooling []string
	for _, ep := range all {
		if g.isDown(ep) {
			cooling = append(cooling, ep)
		} else {
			up = append(up, ep)
		}
	}
	sort.SliceStable(up, func(i, j int) bool { return g.genOf(up[i]) > g.genOf(up[j]) })
	return append(up, cooling...)
}

// retriable reports whether a backend status should trigger failover to the
// next candidate: transport-level failures are always retriable, and these
// statuses mean the node (not the request) has a problem. Client errors such
// as 400/404/421 pass through — another endpoint would answer the same.
func retriable(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// budgetFor resolves a request's total deadline budget: the client's
// X-Deadline-Budget header when present and sane, else the configured
// ReadBudget default.
func (g *Gateway) budgetFor(r *http.Request) time.Duration {
	if budget, ok := wire.ParseDeadlineBudget(r.Header.Get(DeadlineBudgetHeader)); ok {
		return budget
	}
	return g.opts.ReadBudget
}

// backendResp is one backend's fully buffered answer. Buffering before
// declaring success means a torn response body (truncated mid-stream, length
// mismatch) surfaces as a retriable attempt error instead of partial bytes
// leaking to the client as a 200.
type backendResp struct {
	status int
	header http.Header
	body   []byte
}

// roundTrip issues one backend request under timeout — stamped onto the hop's
// X-Deadline-Budget header so serve-side admission stops working on it when
// the gateway gives up — and buffers the whole response.
func (g *Gateway) roundTrip(ctx context.Context, method, url string, body []byte, timeout time.Duration) (*backendResp, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reqBody)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(DeadlineBudgetHeader, wire.FormatDeadlineBudget(timeout))
	resp, err := g.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading body from %s: %w", url, err)
	}
	return &backendResp{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// attempt is one read hop: the remaining budget clamped to PerTryTimeout, so
// a hung endpoint costs one hop, not the whole budget.
func (g *Gateway) attempt(ctx context.Context, ep, method, uri string, body []byte, remaining time.Duration) (*backendResp, error) {
	return g.roundTrip(ctx, method, ep+uri, body, min(remaining, g.opts.PerTryTimeout))
}

// writeBackend relays a buffered backend response to the client byte-exact,
// tagged with the shard and winning endpoint, and records the endpoint's
// reported generation for the freshness preference.
func (g *Gateway) writeBackend(w http.ResponseWriter, shard, ep string, resp *backendResp) {
	if gen, err := strconv.ParseUint(resp.header.Get(wire.GenerationHeader), 10, 64); err == nil {
		g.noteGen(ep, gen)
	}
	for _, h := range []string{"Content-Type", wire.CacheHeader, wire.ModelHeader, wire.GenerationHeader, wire.RetryAfterHeader} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(wire.ShardHeader, shard)
	w.Header().Set(wire.BackendHeader, ep)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// failAttempt records one failed candidate attempt.
func (g *Gateway) failAttempt(ep string) {
	g.met.BackendErrors.Add(1)
	g.markDown(ep)
}

// chargeRetry pays one retry-budget token for an attempt beyond a request's
// first — failover and hedge alike — and counts the outcome either way.
func (g *Gateway) chargeRetry() bool {
	if !g.retry.allow(g.opts.Now()) {
		g.met.RetryBudgetExhausted.Add(1)
		return false
	}
	g.met.Retries.Add(1)
	return true
}

// outcome is one finished attempt against candidate idx.
type outcome struct {
	idx  int
	resp *backendResp
	err  error
}

// armHedge decides whether a read may be hedged — Hedge is on, the request is
// a GET /v1/recommend, and there is a second candidate to race — and if so
// returns the timer whose firing launches the hedge and the channel attempts
// report on. Otherwise both are nil and the read loop runs its attempts
// inline.
func (g *Gateway) armHedge(r *http.Request, cands int) (*time.Timer, chan outcome) {
	if !g.opts.Hedge || r.Method != http.MethodGet || r.URL.Path != "/v1/recommend" || cands < 2 {
		return nil, nil
	}
	// One slot per candidate: a loser's send never blocks after the handler
	// has returned.
	return time.NewTimer(g.opts.HedgeDelay), make(chan outcome, cands)
}

// serveRead routes /v1/recommend, /v1/explain and POST /v1/next to the shard
// owning the user through one attempt loop: the freshest healthy candidate is
// tried first, and a further candidate is launched when nothing is in flight
// any more (failover after a transport error, a torn response body or a 5xx)
// or when the hedge timer fires beside a slow first attempt. A hedge is the
// same launch on a different trigger: both are charged a retry-budget token
// by chargeRetry, so a flapping shard degrades into bounded retries instead
// of a storm and hedged mode never retries more than sequential mode would.
// A POST body is buffered once so every candidate replays identical bytes,
// and a response is buffered fully before it is declared the winner (the
// first byte-valid, non-retriable one; a hedged loser is cancelled when the
// handler returns). The whole request runs under a deadline budget
// (X-Deadline-Budget or ReadBudget).
func (g *Gateway) serveRead(w http.ResponseWriter, r *http.Request) {
	g.met.Requests.Add(1)
	user, err := strconv.Atoi(r.URL.Query().Get("user"))
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "parameter %q: %v", "user", err)
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		body, err = io.ReadAll(r.Body)
		if err != nil {
			g.writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
	}
	shard := g.ring.Owner(user)
	cands := g.candidates(g.byName[shard])
	ctx, uri := r.Context(), r.URL.RequestURI()
	deadline := g.opts.Now().Add(g.budgetFor(r))

	// Without a hedge armed both channels are nil: the timer case below can
	// never fire and every attempt runs inline, one at a time.
	timer, results := g.armHedge(r, len(cands))
	var hedge <-chan time.Time
	if timer != nil {
		defer timer.Stop()
		hedge = timer.C
	}

	var (
		out        outcome
		lastErr    error
		hedgeFired bool
	)
	launched, inflight, hedgeIdx := 0, 0, -1
	for {
		if inflight == 0 || hedgeFired {
			remaining := deadline.Sub(g.opts.Now())
			// The same checks in the same order for a failover and a hedge:
			// a candidate is left, the budget has time, and beyond the
			// request's first attempt the retry bucket pays.
			launch := launched < len(cands) && remaining > 0 && (launched == 0 || g.chargeRetry())
			switch {
			case launch:
				if hedgeFired {
					g.met.Hedges.Add(1)
					hedgeIdx = launched
				} else if launched > 0 {
					hedge = nil // only a first attempt is hedged, not a failover
				}
				if results == nil {
					out.idx = launched
					out.resp, out.err = g.attempt(ctx, cands[launched], r.Method, uri, body, remaining)
				} else {
					inflight++
					go func(idx int) {
						resp, err := g.attempt(ctx, cands[idx], http.MethodGet, uri, nil, remaining)
						results <- outcome{idx, resp, err}
					}(launched)
				}
				launched++
			case hedgeFired:
				// A hedge that cannot be launched or paid for is skipped; the
				// attempt in flight may still answer.
			case launched == len(cands):
				g.writeError(w, http.StatusBadGateway, "shard %q: no endpoint answered: %v", shard, lastErr)
				return
			case remaining <= 0:
				g.met.DeadlineMissed.Add(1)
				g.writeError(w, http.StatusGatewayTimeout, "shard %q: deadline budget exhausted: %v", shard, lastErr)
				return
			default:
				// The retry was refused and nothing is in flight.
				w.Header().Set(wire.RetryAfterHeader, "1")
				g.writeError(w, http.StatusServiceUnavailable, "shard %q: retry budget exhausted: %v", shard, lastErr)
				return
			}
			hedgeFired = false
		}
		if results != nil {
			select {
			case out = <-results:
				inflight--
			case <-hedge:
				hedge, hedgeFired = nil, true
				continue
			}
		}
		ep := cands[out.idx]
		if out.err == nil && !retriable(out.resp.status) {
			if out.idx > 0 {
				g.met.Failovers.Add(1)
			}
			if out.idx == hedgeIdx {
				g.met.HedgeWins.Add(1)
			}
			g.writeBackend(w, shard, ep, out.resp)
			return
		}
		g.failAttempt(ep)
		if lastErr = out.err; lastErr == nil {
			lastErr = fmt.Errorf("endpoint %s answered %d", ep, out.resp.status)
		}
	}
}

// shardObserveResult is one shard's slice of a fanned-out observe.
type shardObserveResult struct {
	Shard      string `json:"shard"`
	CheckIns   int    `json:"checkins"`
	Added      int    `json:"added"`
	Generation uint64 `json:"generation"`
	// Users/POIs are the shard's model dimensions after the batch — under
	// open-world growth they report how far the shard has grown.
	Users int    `json:"users,omitempty"`
	POIs  int    `json:"pois,omitempty"`
	Error string `json:"error,omitempty"`
}

type gwObserveResponse struct {
	Added  int                  `json:"added"`
	Shards []shardObserveResult `json:"shards"`
}

// serveObserve splits an observe batch by user ownership and posts each
// subset to the owning shard's primary (writes never go to replicas).
// Open-world arrivals route the same way: a new user goes to the shard the
// ring hashes its id to (consistent hashing needs no membership update for
// new ids), while a new POI is duplicated to every shard in the split — each
// shard carries the full POI space. The merged response reports per-shard
// cell counts and generations; any shard failure turns the overall status
// into 502 while still reporting the shards that succeeded.
func (g *Gateway) serveObserve(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeObserve(r.Body)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.met.ObserveFanouts.Add(1)
	split := req.Split(g.ring.Owner, g.ring.Shards())
	shards := make([]string, 0, len(split))
	for shard := range split {
		shards = append(shards, shard)
	}
	sort.Strings(shards)

	out := gwObserveResponse{Shards: make([]shardObserveResult, len(shards))}
	budget := g.budgetFor(r)
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			out.Shards[i] = g.postObserve(r.Context(), shard, split[shard], budget)
		}(i, shard)
	}
	wg.Wait()

	status := http.StatusOK
	for _, res := range out.Shards {
		out.Added += res.Added
		if res.Error != "" {
			status = http.StatusBadGateway
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&out)
}

// postObserve sends one shard's subset to its primary. Writes get the whole
// budget in one hop — not the reads' PerTryTimeout clamp — because there is
// no second endpoint to fail over to.
func (g *Gateway) postObserve(ctx context.Context, shard string, sub *wire.ObserveRequest, budget time.Duration) shardObserveResult {
	res := shardObserveResult{Shard: shard, CheckIns: len(sub.CheckIns)}
	body, err := json.Marshal(sub)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	primary := g.byName[shard].Primary
	resp, err := g.roundTrip(ctx, http.MethodPost, primary+"/v1/observe", body, budget)
	if err != nil {
		g.failAttempt(primary)
		res.Error = err.Error()
		return res
	}
	if resp.status != http.StatusOK {
		var eb wire.Error
		json.Unmarshal(resp.body, &eb)
		if eb.Error == "" {
			eb.Error = fmt.Sprintf("%d %s", resp.status, http.StatusText(resp.status))
		}
		res.Error = fmt.Sprintf("primary answered %d: %s", resp.status, eb.Error)
		return res
	}
	var ok wire.ObserveResponse
	if err := json.Unmarshal(resp.body, &ok); err != nil {
		res.Error = err.Error()
		return res
	}
	res.Added, res.Generation = ok.Added, ok.Generation
	res.Users, res.POIs = ok.Users, ok.POIs
	return res
}
