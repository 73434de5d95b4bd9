package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/registry"
	"tcss/internal/wire"
)

func (s *Server) routes() *http.ServeMux {
	read := func(kind readKind, stats *wire.RouteStats) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { s.serveRead(w, r, kind, stats) }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/recommend", read(readRecommend, &s.met.Recommend))
	mux.HandleFunc("POST /v1/next", read(readNext, &s.met.Next))
	mux.HandleFunc("GET /v1/explain", read(readExplain, &s.met.Explain))
	mux.HandleFunc("POST /v1/observe", s.serveObserve)
	mux.HandleFunc("POST /v1/snapshot/save", s.serveSnapshotSave)
	mux.HandleFunc("GET /v1/snapshot/bin", s.serveSnapshotBin)
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Sentinels for the rejections the handlers themselves decide; failf attaches
// the client-facing message. Registry, source, breaker and core sentinels
// arrive from below and share the same table (errorRules).
var (
	errBadRequest = errors.New("bad request")
	// errMisrouted: the request reached a node that must not answer it — a
	// user outside this shard's partition, or a write at a read-only replica.
	// 421 rather than 404/503 because the request itself is fine; only the
	// routing is wrong, and the gateway should know loudly.
	errMisrouted = errors.New("misrouted")
	// errConflict: ids beyond the model's dimensions at a node that will not
	// grow. Distinct from 400 — the request may be perfectly valid at a
	// growth-enabled primary.
	errConflict = errors.New("growth refused")
	// errShed is a bounded queue's overflow (or a draining server's) answer.
	errShed     = errors.New("at capacity")
	errDeadline = errors.New("request deadline exceeded")
)

// reqError is a rejection of kind (one of the sentinels above) whose message
// is exactly what the client reads in the error envelope.
type reqError struct {
	kind error
	msg  string
}

func (e *reqError) Error() string { return e.msg }
func (e *reqError) Unwrap() error { return e.kind }

func failf(kind error, format string, args ...any) error {
	return &reqError{kind: kind, msg: fmt.Sprintf(format, args...)}
}

func shed(what string) error { return failf(errShed, "%s at capacity, retry later", what) }

// errorRule maps one sentinel to its HTTP answer.
type errorRule struct {
	is      error
	status  int
	counter *wire.Counter // nil: whoever produced the error already counted it
	// retryAfter, when set, is advertised as Retry-After (whole seconds,
	// rounded up, at least 1).
	retryAfter func() time.Duration
}

// errorRules is the serving API's one sentinel → (status, counter,
// Retry-After) table, matched top to bottom with errors.Is; an error that
// matches no row is a 500. Built once per server so rows point straight at
// the /metrics document's counters.
func (s *Server) errorRules() []errorRule {
	m := s.met
	shedRetry := func() time.Duration { return s.opts.RetryAfter }
	breakerRetry := func() time.Duration { _, _, retryIn := s.brk.status(); return retryIn }
	return []errorRule{
		{errBadRequest, http.StatusBadRequest, &m.BadRequests, nil},
		// A model that cannot score sequences makes the request malformed
		// for it; an unknown model (or a /v1/next with nothing to route to)
		// is 404; a registered-but-unfitted one is 503 — it exists, it just
		// cannot answer yet.
		{registry.ErrNotNextCapable, http.StatusBadRequest, &m.BadRequests, nil},
		{registry.ErrUnknownModel, http.StatusNotFound, &m.ModelNotFound, nil},
		{registry.ErrNoNextModel, http.StatusNotFound, &m.ModelNotFound, nil},
		{registry.ErrNotReady, http.StatusServiceUnavailable, &m.ModelNotReady, shedRetry},
		{errMisrouted, http.StatusMisdirectedRequest, &m.Shard.Misrouted, nil},
		{ErrReadOnly, http.StatusMisdirectedRequest, &m.Shard.Misrouted, nil},
		{errConflict, http.StatusConflict, &m.ObserveStats.RejectedOutOfRange, nil},
		// The writer's own range rejection: ids that need growth this node
		// (or its config) refused.
		{core.ErrOutOfRange, http.StatusConflict, nil, nil},
		{errShed, http.StatusServiceUnavailable, &m.Shed, shedRetry},
		// Breaker open: advertise its own probe deadline.
		{ErrDegraded, http.StatusServiceUnavailable, &m.Shed, breakerRetry},
		// Growth needs float64 factors and this node serves a compact model;
		// 503 — the cluster may still have a f64 primary.
		{core.ErrCompactModel, http.StatusServiceUnavailable, nil, nil},
		{errDeadline, http.StatusGatewayTimeout, &m.DeadlineMissed, nil},
	}
}

// fail answers err with the status, counter and Retry-After its table row
// prescribes and the uniform error envelope.
func (s *Server) fail(w http.ResponseWriter, err error) {
	rule := errorRule{status: http.StatusInternalServerError, counter: &s.met.InternalErrors}
	for _, r := range s.rules {
		if errors.Is(err, r.is) {
			rule = r
			break
		}
	}
	if rule.counter != nil {
		rule.counter.Add(1)
	}
	if rule.retryAfter != nil {
		secs := max(1, int(math.Ceil(rule.retryAfter().Seconds())))
		w.Header().Set(wire.RetryAfterHeader, strconv.Itoa(secs))
	}
	writeJSON(w, rule.status, wire.Error{Error: err.Error()})
}

// owns reports whether this node's partition covers user. Standalone servers
// (no Owns predicate) own everyone.
func (s *Server) owns(user int) bool {
	return s.opts.Owns == nil || s.opts.Owns(user)
}

// requestTimeout resolves the per-request deadline: the configured
// RequestTimeout, clamped down to the gateway's X-Deadline-Budget header when
// one arrives — once the gateway's budget for this hop is spent nobody is
// waiting for the answer, so working longer only burns scoring slots.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	if budget, ok := wire.ParseDeadlineBudget(r.Header.Get(wire.DeadlineBudgetHeader)); ok && budget < s.opts.RequestTimeout {
		s.met.Admission.BudgetClamped.Add(1)
		return budget
	}
	return s.opts.RequestTimeout
}

// readKind tells the pipeline which of the three read endpoints it serves.
type readKind int

const (
	readRecommend readKind = iota // GET /v1/recommend
	readNext                      // POST /v1/next
	readExplain                   // GET /v1/explain
)

// readRequest is one parsed, not yet validated read — what a per-endpoint
// parser hands the pipeline. Fields an endpoint does not take stay zero.
type readRequest struct {
	kind    readKind
	user, t int
	n       int                // recommend, next
	model   string             // recommend, next: the ?model= override
	seq     []wire.NextCheckIn // next
	poi     int                // explain
}

// params reads integer query parameters out of a query string parsed once per
// request, remembering the first failure. topN is the server's default n.
type params struct {
	q    url.Values
	topN int
	err  error
}

// required parses a mandatory integer parameter.
func (p *params) required(name string) int {
	if p.q.Get(name) == "" && p.err == nil {
		p.err = failf(errBadRequest, "missing required parameter %q", name)
	}
	return p.optional(name, 0)
}

// optional parses an integer parameter that defaults to def when absent.
func (p *params) optional(name string, def int) int {
	raw := p.q.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil && p.err == nil {
		p.err = failf(errBadRequest, "parameter %q: %v", name, err)
	}
	return v
}

// parse turns one endpoint's query string (and, for next, its body) into a
// readRequest.
func (p *params) parse(kind readKind, body io.Reader) (readRequest, error) {
	switch kind {
	case readRecommend:
		return readRequest{
			kind: kind, model: p.q.Get("model"),
			user: p.required("user"), t: p.required("t"), n: p.optional("n", p.topN),
		}, p.err
	case readExplain:
		return readRequest{
			kind: kind,
			user: p.required("user"), poi: p.required("poi"), t: p.required("t"),
		}, p.err
	}
	return p.parseNext(body)
}

// maxNextSeq bounds the check-in sequence length of one /v1/next request:
// long enough for any realistic recent history, short enough that a single
// request cannot monopolize a scoring slot rolling an unbounded recurrence.
const maxNextSeq = 512

// parseNext reads the posted check-in sequence; the target time t defaults to
// the last check-in's time unit.
func (p *params) parseNext(body io.Reader) (readRequest, error) {
	req := readRequest{
		kind: readNext, model: p.q.Get("model"),
		user: p.required("user"), t: p.optional("t", 0), n: p.optional("n", p.topN),
	}
	if p.err != nil {
		return req, p.err
	}
	var posted wire.NextRequest
	if err := json.NewDecoder(body).Decode(&posted); err != nil {
		return req, failf(errBadRequest, "decoding body: %v", err)
	}
	req.seq = posted.CheckIns
	switch {
	case len(req.seq) == 0:
		return req, failf(errBadRequest, "no checkins in request")
	case len(req.seq) > maxNextSeq:
		return req, failf(errBadRequest, "%d checkins exceed the limit of %d", len(req.seq), maxNextSeq)
	case p.q.Get("t") == "":
		req.t = req.seq[len(req.seq)-1].T
	}
	return req, nil
}

// validate is the read path's one range and ownership check: every index the
// scorers will use lies inside the snapshot's dimensions, the user belongs to
// this node's partition, and n is positive (and clamped to MaxTopN).
func (s *Server) validate(q *readRequest, m *core.Model) error {
	if q.user < 0 || q.user >= m.I {
		return failf(errBadRequest, "user %d out of range [0, %d)", q.user, m.I)
	}
	if !s.owns(q.user) {
		return failf(errMisrouted, "user %d is not in shard %q's partition", q.user, s.opts.ShardName)
	}
	for i, c := range q.seq {
		if c.POI < 0 || c.POI >= m.J {
			return failf(errBadRequest, "checkin %d: poi %d out of range [0, %d)", i, c.POI, m.J)
		}
		if c.T < 0 || c.T >= m.K {
			return failf(errBadRequest, "checkin %d: t %d out of range [0, %d)", i, c.T, m.K)
		}
	}
	if q.kind == readExplain && (q.poi < 0 || q.poi >= m.J) {
		return failf(errBadRequest, "poi %d out of range [0, %d)", q.poi, m.J)
	}
	if q.t < 0 || q.t >= m.K {
		return failf(errBadRequest, "t %d out of range [0, %d)", q.t, m.K)
	}
	if q.kind == readExplain {
		return nil
	}
	if q.n <= 0 {
		return failf(errBadRequest, "n must be positive, got %d", q.n)
	}
	q.n = min(q.n, s.opts.MaxTopN)
	return nil
}

// seqCacheString canonicalizes a check-in sequence for the cache key.
func seqCacheString(checkIns []wire.NextCheckIn) string {
	var b strings.Builder
	for _, c := range checkIns {
		b.WriteString(strconv.Itoa(c.POI))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(c.T))
		b.WriteByte(';')
	}
	return b.String()
}

// explainResponse mirrors core.Explanation with JSON-safe distances: +Inf
// (no friend/own POIs) marshals as null, which encoding/json cannot express
// for a plain float64.
type explainResponse struct {
	User       int    `json:"user"`
	POI        int    `json:"poi"`
	T          int    `json:"t"`
	Generation uint64 `json:"generation"`

	Score            float64 `json:"score"`
	VisitProbability float64 `json:"visit_probability"`
	PeakT            int     `json:"peak_t"`
	PeakScore        float64 `json:"peak_score"`

	FriendVisited    bool     `json:"friend_visited"`
	NearestFriendPOI int      `json:"nearest_friend_poi"`
	NearestFriendKm  *float64 `json:"nearest_friend_km"`
	OwnVisited       bool     `json:"own_visited"`
	NearestOwnPOI    int      `json:"nearest_own_poi"`
	NearestOwnKm     *float64 `json:"nearest_own_km"`
	LocationEntropyW float64  `json:"location_entropy_weight"`
}

func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// serveRead is the read pipeline of all three read endpoints, and the only
// code that runs its stages: parse → load snapshot → validate range and
// ownership → route through the registry → response cache → (on a miss,
// compute: admit under the request deadline → score → encode) → headers →
// latency and per-model accounting → shadow. Scored reads (recommend, next)
// differ only in the registry call that routes them and the scorer method
// that answers; explain reads the TCSS snapshot directly, so it is not routed,
// never cached and carries no X-Cache/X-Model headers.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, kind readKind, stats *wire.RouteStats) {
	started := s.opts.now()
	stats.Count.Add(1)

	snap := s.snap.load()
	p := params{q: r.URL.Query(), topN: s.opts.TopNDefault}
	q, err := p.parse(kind, r.Body)
	if err == nil {
		err = s.validate(&q, snap.Model)
	}
	if err != nil {
		s.fail(w, err)
		return
	}

	// Routing: explicit ?model= override, else the registry's policy
	// (primary, or the deterministic A/B split when configured).
	routed, next := kind != readExplain, kind == readNext
	var (
		dec    registry.Decision
		scorer Scorer
		key    cacheKey
		body   []byte
		gen    uint64
	)
	if routed {
		if next {
			dec, err = s.reg.RouteNext(q.user, q.model)
		} else {
			dec, err = s.reg.Route(q.user, q.model)
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		scorer, _ = s.reg.Get(dec.Model)
		key = cacheKey{model: dec.Model, gen: scorer.Generation(), user: q.user, t: q.t, n: q.n, seq: seqCacheString(q.seq)}
		body, gen = s.cache.get(key), key.gen
	}

	hit, outcome := body != nil, "MISS"
	var recs []core.Recommendation
	if hit {
		s.met.Cache.Hits.Add(1)
		outcome = "HIT"
	} else {
		if routed {
			s.met.Cache.Misses.Add(1)
		}
		body, gen, recs, err = s.compute(r, &q, snap, scorer, dec.Model)
		if err != nil {
			if errors.Is(err, registry.ErrNotReady) {
				s.reg.RecordNotReady(dec.Model)
			}
			s.fail(w, err)
			return
		}
		if routed {
			key.gen = gen
			s.cache.put(key, body)
		}
	}

	h := w.Header()
	h.Set("Content-Type", "application/json")
	if routed {
		h.Set(wire.CacheHeader, outcome)
		h.Set(wire.ModelHeader, dec.Model)
	}
	h.Set(wire.GenerationHeader, strconv.FormatUint(gen, 10))
	w.Write(body)
	dur := s.opts.now().Sub(started)
	stats.Latency.Observe(dur)
	if routed {
		s.reg.RecordServe(dec.Model, next, hit, dur)
		// Shadow scoring runs strictly after the primary bytes are written
		// and over copies of the inputs; it can only touch registry counters.
		if !hit && dec.Shadow != "" {
			s.spawnShadow(dec.Shadow, &q, recs)
		}
	}
}

// compute is the miss half of the read pipeline: a scoring slot within the
// request's deadline (else 503/504), the endpoint's scoring call, and the
// response bytes — exactly what a later cache hit replays — under the
// generation they were computed against.
func (s *Server) compute(r *http.Request, q *readRequest, snap *Snapshot, scorer Scorer, model string) (body []byte, gen uint64, recs []core.Recommendation, err error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	defer cancel()
	if err = s.adm.acquire(ctx); err != nil {
		return nil, 0, nil, err
	}
	if s.opts.holdForTest != nil {
		s.opts.holdForTest()
	}
	if ctx.Err() != nil {
		s.adm.release()
		return nil, 0, nil, errDeadline
	}

	var resp any
	switch q.kind {
	case readRecommend:
		recs, gen, err = scorer.Recommend(q.user, q.t, q.n)
	case readNext:
		// RouteNext only ever routes to NextScorers.
		recs, gen, err = scorer.(registry.NextScorer).Next(q.user, q.seq, q.t, q.n)
	case readExplain:
		gen = snap.Gen
		resp = newExplainResponse(q, snap)
	}
	s.adm.release()
	if err != nil {
		return nil, 0, nil, err
	}

	if q.kind != readExplain {
		scored := &wire.ReadResponse{
			User: q.user, T: q.t, Generation: gen,
			Results: make([]wire.Recommendation, len(recs)),
		}
		if q.kind == readNext {
			scored.Model = model
		}
		for i, rec := range recs {
			scored.Results[i] = wire.Recommendation{POI: rec.POI, Score: rec.Score}
		}
		resp = scored
	}
	body, err = json.Marshal(resp)
	return append(body, '\n'), gen, recs, err
}

func newExplainResponse(q *readRequest, snap *Snapshot) *explainResponse {
	ex := snap.Model.Explain(snap.Side, q.user, q.poi, q.t)
	return &explainResponse{
		User: q.user, POI: q.poi, T: q.t, Generation: snap.Gen,
		Score:            ex.Score,
		VisitProbability: ex.VisitProbability,
		PeakT:            ex.PeakTimeUnit,
		PeakScore:        ex.PeakScore,
		FriendVisited:    ex.FriendVisited,
		NearestFriendPOI: ex.NearestFriendPOI,
		NearestFriendKm:  finiteOrNil(ex.NearestFriendDist),
		OwnVisited:       ex.OwnVisited,
		NearestOwnPOI:    ex.NearestOwnPOI,
		NearestOwnKm:     finiteOrNil(ex.NearestOwnDistance),
		LocationEntropyW: ex.LocationEntropyW,
	}
}

// spawnShadow schedules an off-path scoring of the shadow model and records
// its top-K overlap against the primary's results. It runs after the primary
// response bytes are already on the wire, never writes to the ResponseWriter,
// and copies what it needs from the request — by construction it cannot alter
// the primary response. Slots are bounded; overflow is dropped and counted.
func (s *Server) spawnShadow(name string, q *readRequest, primary []core.Recommendation) {
	sc, ok := s.reg.Get(name)
	if !ok {
		return
	}
	pois := make([]int, len(primary))
	for i, rec := range primary {
		pois[i] = rec.POI
	}
	user, seq, t, n := q.user, q.seq, q.t, q.n
	s.reg.ShadowGo(func() {
		var recs []core.Recommendation
		var err error
		if seq != nil {
			ns, isNext := sc.(registry.NextScorer)
			if !isNext {
				s.reg.RecordShadowError(name)
				return
			}
			recs, _, err = ns.Next(user, seq, t, n)
		} else {
			recs, _, err = sc.Recommend(user, t, n)
		}
		if err != nil {
			s.reg.RecordShadowError(name)
			return
		}
		shadowPOIs := make([]int, len(recs))
		for i, rec := range recs {
			shadowPOIs[i] = rec.POI
		}
		frac, exact := registry.Overlap(pois, shadowPOIs)
		s.reg.RecordShadow(name, frac, exact)
	})
}

// maxGrowPerBatch bounds how many rows one observe batch may append to the
// user or the POI dimension (DESIGN §13): an id near MaxInt would overflow
// the dimension arithmetic, and every id below a far one becomes a
// placeholder row whose d_max pairs are measured against all POIs (Δ·J
// Haversines: minutes for a POI id of 100 000).
const maxGrowPerBatch = 1024

// observeBatch validates a decoded observe request against the snapshot's
// dimensions, this node's partition and its growth setting, and converts it
// to the writer's batch.
func (s *Server) observeBatch(req *wire.ObserveRequest, m *core.Model) (*tcss.ObserveBatch, error) {
	grow := s.opts.Grow
	if !grow && (len(req.NewUsers) > 0 || len(req.NewPOIs) > 0) {
		return nil, failf(errConflict, "open-world arrivals rejected: growth is disabled on this node")
	}
	// tooFar compares id-dim, which cannot overflow for a non-negative id.
	tooFar := func(id, dim int) bool { return id-dim >= maxGrowPerBatch }
	// needI tracks the user dimension the batch implies, so friend references
	// can chain through same-batch arrivals.
	needI := m.I
	batch := &tcss.ObserveBatch{
		NewUsers: make([]lbsn.NewUser, len(req.NewUsers)),
		NewPOIs:  make([]lbsn.POI, len(req.NewPOIs)),
		CheckIns: make([]lbsn.CheckIn, len(req.CheckIns)),
	}
	for i, u := range req.NewUsers {
		if u.ID < 0 {
			return nil, failf(errBadRequest, "new_user %d: negative id %d", i, u.ID)
		}
		if tooFar(u.ID, m.I) {
			return nil, failf(errBadRequest, "new_user %d: id %d grows %d users by more than %d", i, u.ID, m.I, maxGrowPerBatch)
		}
		if !s.owns(u.ID) {
			return nil, failf(errMisrouted, "new_user %d: user %d is not in shard %q's partition", i, u.ID, s.opts.ShardName)
		}
		needI = max(needI, u.ID+1)
		batch.NewUsers[i] = lbsn.NewUser{ID: u.ID, Friends: u.Friends}
	}
	for i, u := range req.NewUsers {
		for _, f := range u.Friends {
			if f < 0 || f >= needI {
				return nil, failf(errBadRequest, "new_user %d: friend %d out of range [0, %d)", i, f, needI)
			}
		}
	}
	for i, p := range req.NewPOIs {
		if p.ID < 0 {
			return nil, failf(errBadRequest, "new_poi %d: negative id %d", i, p.ID)
		}
		if tooFar(p.ID, m.J) {
			return nil, failf(errBadRequest, "new_poi %d: id %d grows %d POIs by more than %d", i, p.ID, m.J, maxGrowPerBatch)
		}
		batch.NewPOIs[i] = lbsn.POI{
			ID: p.ID, Loc: geo.Point{Lat: p.Lat, Lon: p.Lon},
			Category: lbsn.Category(p.Category),
		}
	}
	for i, c := range req.CheckIns {
		ci := lbsn.CheckIn{User: c.User, POI: c.POI, Month: c.Month, Week: c.Week, Hour: c.Hour}
		if c.User < 0 {
			return nil, failf(errBadRequest, "checkin %d: negative user %d", i, c.User)
		}
		if c.User >= m.I && !grow {
			return nil, failf(errConflict, "checkin %d: user %d beyond model dimension %d and growth is disabled", i, c.User, m.I)
		}
		if tooFar(c.User, m.I) {
			return nil, failf(errBadRequest, "checkin %d: user %d grows %d users by more than %d", i, c.User, m.I, maxGrowPerBatch)
		}
		if !s.owns(c.User) {
			return nil, failf(errMisrouted, "checkin %d: user %d is not in shard %q's partition", i, c.User, s.opts.ShardName)
		}
		if c.POI < 0 {
			return nil, failf(errBadRequest, "checkin %d: negative poi %d", i, c.POI)
		}
		if c.POI >= m.J && !grow {
			return nil, failf(errConflict, "checkin %d: poi %d beyond model dimension %d and growth is disabled", i, c.POI, m.J)
		}
		if tooFar(c.POI, m.J) {
			return nil, failf(errBadRequest, "checkin %d: poi %d grows %d POIs by more than %d", i, c.POI, m.J, maxGrowPerBatch)
		}
		if k := s.gran.Index(ci); k < 0 || k >= m.K {
			return nil, failf(errBadRequest, "checkin %d: time unit %d out of range [0, %d)", i, k, m.K)
		}
		batch.CheckIns[i] = ci
	}
	return batch, nil
}

// writerCall is the one round trip to the single-writer goroutine: shed when
// the server is draining or the writer's bounded queue is full, else enqueue
// and wait for the writer's reply or the request's deadline. On a missed
// deadline the command stays queued and will still be applied; the client
// just stopped waiting for confirmation.
func (s *Server) writerCall(r *http.Request, cmd writerCmd, what string) (writerResult, error) {
	if s.closing.Load() {
		return writerResult{}, shed("server draining, " + what)
	}
	cmd.reply = make(chan writerResult, 1)
	select {
	case s.cmds <- cmd:
	default:
		return writerResult{}, shed("observe queue")
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	defer cancel()
	select {
	case res := <-cmd.reply:
		return res, res.err
	case <-ctx.Done():
		return writerResult{}, errDeadline
	}
}

func (s *Server) serveObserve(w http.ResponseWriter, r *http.Request) {
	started := s.opts.now()
	s.met.Observe.Count.Add(1)

	res, err := s.observe(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ObserveResponse{
		Added: res.added, Generation: res.gen, Users: res.users, POIs: res.pois,
	})
	s.met.Observe.Latency.Observe(s.opts.now().Sub(started))
}

// observe decodes, validates and applies one observe request.
func (s *Server) observe(r *http.Request) (writerResult, error) {
	if s.src.ReadOnly() {
		return writerResult{}, ErrReadOnly
	}
	req, err := wire.DecodeObserve(r.Body)
	if err != nil {
		return writerResult{}, failf(errBadRequest, "%v", err)
	}
	batch, err := s.observeBatch(req, s.snap.load().Model)
	if err != nil {
		return writerResult{}, err
	}
	return s.writerCall(r, writerCmd{batch: batch}, "observe")
}

type saveResponse struct {
	Path       string `json:"path"`
	Generation uint64 `json:"generation"`
}

func (s *Server) serveSnapshotSave(w http.ResponseWriter, r *http.Request) {
	if s.opts.SnapshotPath == "" {
		s.fail(w, failf(errBadRequest, "snapshot saving is not configured (no snapshot path)"))
		return
	}
	res, err := s.writerCall(r, writerCmd{save: true}, "snapshot save")
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, saveResponse{Path: s.opts.SnapshotPath, Generation: res.gen})
}

// serveHealthz reports three states: "ok" (200), "degraded" (200 — reads
// still serve the last good snapshot; the body says why: breaker-rejected
// writes, draining, or a replica past its staleness bound), and "no
// snapshot" (503 — nothing to serve).
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.load()
	if snap == nil || snap.Model == nil {
		writeJSON(w, http.StatusServiceUnavailable, wire.Health{Status: "no snapshot"})
		return
	}
	resp := wire.Health{
		Status:     "ok",
		Generation: snap.Gen,
		AgeSeconds: s.opts.now().Sub(snap.Created).Seconds(),
		Shard:      s.opts.ShardName,
		Role:       s.opts.Role,
		GenLag:     s.genLag(snap.Gen),
	}
	if state, reason, _ := s.brk.status(); state != "closed" {
		resp.Status = "degraded"
		resp.Reason = reason
		resp.Breaker = state
	} else if s.closing.Load() {
		resp.Status = "degraded"
		resp.Reason = "server draining"
	} else if s.opts.MaxGenLag > 0 && resp.GenLag > s.opts.MaxGenLag {
		// Past the staleness bound: still serving the last good snapshot,
		// but loudly — the gateway deprioritizes degraded replicas and the
		// chaos invariants treat answers beyond the bound as violations.
		resp.Status = "degraded"
		resp.Reason = fmt.Sprintf("staleness: %d generations behind primary (bound %d)",
			resp.GenLag, s.opts.MaxGenLag)
	}
	writeJSON(w, http.StatusOK, resp)
}
