// Package serve is the online recommendation server: it puts a trained
// tcss.Recommender behind an HTTP API (stdlib net/http only) built for heavy
// read traffic with incremental freshness.
//
// Consistency model. The serving state is an immutable Snapshot (model
// factors + side information + generation counter) held behind an atomic
// pointer. Reads (recommend, explain) load the pointer once and score against
// that snapshot for the whole request — lock-free, wait-free, and immune to
// concurrent updates. All writes (observe batches, snapshot saves) funnel
// through a single-writer update goroutine that applies
// Recommender.ObserveOpen — itself transactional, producing fresh model/side
// objects instead of mutating published ones — and atomically swaps in the
// next-generation snapshot. Readers therefore never block on writers and
// never see a half-updated model; every response is internally consistent
// with exactly one generation, which the response reports.
//
// Load management. The read path runs behind a bounded admission queue
// (MaxInflight scoring slots, MaxQueue waiters, 503 + Retry-After beyond
// that), per-request deadlines (504 on expiry), a generation-keyed LRU
// response cache that snapshot swaps invalidate wholesale, and pooled scoring
// scratch (core.RecScratch) so steady-state requests allocate only their
// response. The load picks the scoring path: a recommend miss admitted while
// another read holds a scoring slot joins a batch that streams the POI slab
// once for all its members (core.TopNBatch, coalesce.go); a lone miss scores
// alone. Observability comes from /metrics (request counts, latency
// percentiles off additive log-scale histograms, cache hit rate, snapshot
// generation/age, queue depths) and /healthz.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/fault"
	"tcss/internal/registry"
	"tcss/internal/wire"
)

// Options configures a Server. The zero value is usable: a zero or negative
// TopNDefault, MaxTopN, RequestTimeout, MaxInflight or RetryAfter, a zero
// CacheSize and a zero Online take their DefaultOptions value. MaxQueue is
// the exception: only a negative MaxQueue takes the default (256), and the
// zero value's MaxQueue 0 builds a node with no wait queue, which sheds
// every read beyond MaxInflight and never batches recommend misses. Start
// from DefaultOptions to get the queue.
type Options struct {
	// TopNDefault is the result count when ?n= is omitted; MaxTopN caps it.
	TopNDefault int
	MaxTopN     int

	// RequestTimeout is the per-request deadline applied on top of whatever
	// deadline the client's context already carries.
	RequestTimeout time.Duration

	// MaxInflight bounds concurrently scoring read requests; MaxQueue bounds
	// how many more may wait for a slot (negative: the default 256; 0: no
	// queue). Beyond that, requests are shed with 503 and a Retry-After of
	// RetryAfter. A node with MaxQueue 0 never batches recommend misses (see
	// snapshotScorer.Recommend).
	MaxInflight int
	MaxQueue    int
	RetryAfter  time.Duration

	// CacheSize is the LRU capacity in responses; < 0 disables the cache.
	CacheSize int

	// Online configures the incremental model update per observe batch.
	Online tcss.OnlineConfig

	// Grow lets /v1/observe reference users and POIs beyond the current
	// model dimensions: the batch may carry new_users/new_pois arrival
	// metadata and the model grows (warm-started rows, extended side
	// information) inside the single-writer path, publishing the grown
	// snapshot as the next generation. When false (the default), out-of-range
	// ids are rejected with 409 Conflict before reaching the writer. Growth
	// requires float64 factor storage; on a compact model the writer rejects
	// the batch with 503 and counts it in observe_pipeline.rejected_compact.
	Grow bool

	// Registry, when non-nil, is the multi-model registry the read path
	// routes through: extra models (sequential scorers) registered on it are
	// servable via ?model= overrides, A/B splits, and shadow scoring, and
	// /v1/next routes to its next-capable models. The server registers its
	// own snapshot adapter as the registry's primary model and finalizes the
	// registry during construction — register secondary models and set
	// routing policies (SetAB/SetShadow) before NewFromSource. Nil gets a
	// fresh single-model registry, which behaves exactly like the
	// pre-registry server.
	Registry *registry.Registry

	// SnapshotPath, when set, enables POST /v1/snapshot/save, which persists
	// the current model (with its generation) there via the versioned format.
	SnapshotPath string

	// FirstGeneration numbers the snapshot published at startup; a server
	// restarted from a saved snapshot passes the loaded generation so the
	// counter keeps rising across restarts.
	FirstGeneration uint64

	// SnapshotKeep is how many rotated prior snapshot files to retain next
	// to SnapshotPath (path.1 … path.N) as a recovery fallback ladder; 0
	// keeps only the newest file.
	SnapshotKeep int

	// ShardName and Role identify this node inside a sharded cluster; both
	// appear in /healthz and /metrics so the gateway can label its rollups.
	// Role is "primary" or "replica"; empty means a standalone node.
	ShardName string
	Role      string

	// MaxGenLag is the staleness bound for replicas: once the served snapshot
	// trails the primary's advertised generation by more than this many
	// generations, /healthz reports degraded (reason "staleness") so the
	// gateway deprioritizes the replica. 0 disables the bound. The current
	// lag is always reported in /metrics' replication block.
	MaxGenLag uint64

	// Owns, when non-nil, restricts the users this node answers for: a
	// request for a user outside the partition is rejected with 421
	// (Misdirected Request) instead of being served, so a gateway/shard ring
	// disagreement surfaces as a loud routing error rather than a silently
	// wrong (differently-generated) answer. Nil owns every user.
	Owns func(user int) bool

	// OnSwap, when set, observes every published snapshot — including the
	// initial one — from the publishing goroutine. Cluster test harnesses
	// use it to capture per-generation snapshots for bit-identity checks.
	OnSwap func(*Snapshot)

	// FS, when non-nil, routes snapshot writes through an injectable
	// filesystem seam (fault.InjectFS in crash harnesses); nil uses the real
	// filesystem.
	FS fault.FS

	// Faults, when non-nil, injects latency and errors at the top of the
	// writer's observe ("observe") and snapshot-save ("save") operations —
	// the seam the degraded-mode tests drive. A nil value costs one pointer
	// check.
	Faults *fault.Hooks

	// now substitutes time.Now in tests.
	now func() time.Time
	// holdForTest, when set, runs on the read path after admission; tests
	// use it to hold scoring slots open.
	holdForTest func()
}

// DefaultOptions returns the serving defaults.
func DefaultOptions() Options {
	return Options{
		TopNDefault:    10,
		MaxTopN:        100,
		RequestTimeout: 2 * time.Second,
		MaxInflight:    4 * runtime.GOMAXPROCS(0),
		MaxQueue:       256,
		RetryAfter:     time.Second,
		CacheSize:      8192,
		Online:         tcss.DefaultOnlineConfig(),
	}
}

// Validate rejects option combinations that withDefaults cannot repair.
// Non-positive values generally mean "use the default", so Validate only
// flags a partly filled Online: the all-zero struct means "use the
// defaults", but one that sets, say, only DecayHalfLife has no usable
// Epochs, and replacing it whole would silently drop what the caller did
// set. New calls Validate before applying defaults.
func (o Options) Validate() error {
	if o.Online != (tcss.OnlineConfig{}) && o.Online.Epochs <= 0 {
		return fmt.Errorf("serve: Options.Online is set but Online.Epochs is %d; start from tcss.DefaultOnlineConfig()", o.Online.Epochs)
	}
	return nil
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.TopNDefault <= 0 {
		o.TopNDefault = def.TopNDefault
	}
	if o.MaxTopN <= 0 {
		o.MaxTopN = def.MaxTopN
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = def.RequestTimeout
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = def.MaxInflight
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = def.MaxQueue
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = def.RetryAfter
	}
	if o.CacheSize == 0 {
		o.CacheSize = def.CacheSize
	}
	if o.Online == (tcss.OnlineConfig{}) {
		o.Online = def.Online
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// The writer's fixed settings: observeQueue bounds buffered writer commands
// (observe/save batches), and a full queue sheds observes with 503; a failed
// snapshot save is retried saveRetries times, saveRetryBackoff apart; and
// modelName is the registry name of the server's own TCSS snapshot model.
const (
	observeQueue     = 64
	saveRetries      = 2
	saveRetryBackoff = 50 * time.Millisecond
	modelName        = "tcss"
)

// writerCmd is a command for the single-writer update goroutine.
type writerCmd struct {
	batch *tcss.ObserveBatch // observe batch (check-ins + open-world arrivals)
	save  bool               // persist the current snapshot to SnapshotPath
	pub   *Snapshot          // externally built snapshot to publish (replication)
	reply chan writerResult  // buffered(1); always receives exactly once
}

// writerResult is the writer's reply. users and pois are the dimensions of
// the snapshot gen names — read from the snapshot the writer itself published
// (or found current), never from whatever is current by the time the handler
// answers.
type writerResult struct {
	added       int
	gen         uint64
	users, pois int
	err         error
}

// Server is the embeddable recommendation server. Create one with New,
// expose Handler() on any net/http server, and Close it on shutdown.
type Server struct {
	opts Options
	gran tcss.Granularity

	// src is owned by the writer goroutine after New returns; the read path
	// only ever touches immutable snapshots.
	src Source

	snap  holder
	reg   *registry.Registry
	coal  *coalescer
	cache *lruCache
	rules []errorRule // sentinel → HTTP answer, see errorRules
	adm   *admission
	brk   *breaker
	cmds  chan writerCmd
	quit  chan struct{}
	wg    sync.WaitGroup
	mux   *http.ServeMux

	// met is the /metrics document and its own live storage (see
	// wire.NodeMetrics); scrapeMu serialises the scrapes that fill its gauges.
	met      *wire.NodeMetrics
	start    time.Time
	scrapeMu sync.Mutex

	// Shutdown coordination: closing makes handlers shed new write commands;
	// drain tells the writer to finish buffered work, take a final snapshot,
	// and exit. quitOnce/drainOnce make Close and Shutdown idempotent and
	// safe to combine.
	closing   atomic.Bool
	drain     chan struct{}
	quitOnce  sync.Once
	drainOnce sync.Once

	scratch sync.Pool // *core.RecScratch

	// primaryGen is the newest generation this node's primary has advertised
	// (replicas only; fed by the replicator via SetPrimaryGeneration). The gap
	// to the served snapshot's generation is the replica's staleness, bounded
	// by Options.MaxGenLag.
	primaryGen atomic.Uint64
}

// SetPrimaryGeneration records the newest generation the primary is known to
// serve. The replicator calls this on every reachable sync; /healthz turns
// degraded and /metrics reports the lag once the replica falls more than
// Options.MaxGenLag generations behind.
func (s *Server) SetPrimaryGeneration(gen uint64) {
	for {
		cur := s.primaryGen.Load()
		if gen <= cur || s.primaryGen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// genLag returns how many generations the served snapshot trails the primary
// (zero when current, standalone, or before the first sync).
func (s *Server) genLag(served uint64) uint64 {
	if p := s.primaryGen.Load(); p > served {
		return p - served
	}
	return 0
}

// New builds a Server around a fitted Recommender and starts its update
// goroutine. The Recommender must not be used directly afterwards — the
// server's writer goroutine owns it.
func New(rec *tcss.Recommender, opts Options) (*Server, error) {
	if rec == nil || rec.Model == nil || rec.Side == nil {
		return nil, fmt.Errorf("serve: recommender is not fitted")
	}
	return NewFromSource(&RecommenderSource{Rec: rec}, opts)
}

// NewFromSource builds a Server over an arbitrary snapshot Source — the seam
// replicas (StaticSource + Publish) and read-only deployments use — and
// starts its update goroutine.
func NewFromSource(src Source, opts Options) (*Server, error) {
	if err := validateSource(src); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		gran:  src.Granularity(),
		src:   src,
		cache: newLRUCache(opts.CacheSize),
		start: opts.now(),
		adm:   newAdmission(opts.MaxInflight, opts.MaxQueue),
		brk:   newBreaker(opts.now),
		cmds:  make(chan writerCmd, observeQueue),
		quit:  make(chan struct{}),
		drain: make(chan struct{}),
	}
	s.met = s.newMetrics()
	s.rules = s.errorRules()
	model, side := src.Snapshot()
	s.publish(&Snapshot{
		Gen:     opts.FirstGeneration,
		Model:   model,
		Side:    side,
		Created: opts.now(),
	})
	s.coal = newCoalescer(s)
	s.reg = opts.Registry
	if s.reg == nil {
		s.reg = registry.New()
	}
	if err := s.reg.RegisterPrimary(&snapshotScorer{s: s, name: modelName}); err != nil {
		close(s.quit)
		return nil, err
	}
	if err := s.reg.Finalize(); err != nil {
		close(s.quit)
		return nil, err
	}
	s.mux = s.routes()
	s.wg.Add(1)
	go s.writerLoop()
	return s, nil
}

// Handler returns the server's HTTP handler (all /v1, /metrics and /healthz
// routes), suitable for http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Generation returns the currently served snapshot generation.
func (s *Server) Generation() uint64 { return s.snap.load().Gen }

// Close stops the update goroutine immediately. In-flight HTTP requests on
// the read path are unaffected (they only touch snapshots); queued observes
// that have not been picked up are answered with an error by their
// enqueuer's timeout. For an orderly exit that drains queued writes and
// saves a final snapshot, use Shutdown.
func (s *Server) Close() {
	s.quitOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
	s.reg.DrainShadows()
}

// Shutdown stops the server gracefully: new write requests are shed with 503
// immediately, the writer drains every queued observe/save command, takes a
// final best-effort snapshot save when SnapshotPath is configured, and
// exits. Reads keep serving throughout (connection draining is the HTTP
// listener's job — pair this with http.Server.Shutdown). If ctx expires
// before the drain completes, the writer is killed Close-style and ctx's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.drainOnce.Do(func() { close(s.drain) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.reg.DrainShadows()
		return nil
	case <-ctx.Done():
		s.quitOnce.Do(func() { close(s.quit) })
		<-done
		return ctx.Err()
	}
}

// publish swaps in a new snapshot and invalidates the response cache. Called
// by the writer goroutine (and once during New before it starts).
func (s *Server) publish(snap *Snapshot) {
	s.snap.store(snap)
	s.cache.purge()
	if s.opts.OnSwap != nil {
		s.opts.OnSwap(snap)
	}
}

// Publish hands an externally built snapshot (model, side information,
// generation) to the writer goroutine for publication. It is how snapshot
// shipping feeds a replica: the Replicator decodes a shipped generation and
// publishes it here, keeping the single-writer invariant — reads never see a
// half-swapped snapshot, and publications observe a total order. Generations
// are monotonic: a shipment at or below the current generation is a no-op
// (the returned generation reports what is actually served). Publish blocks
// until the writer picks the command up or ctx expires.
func (s *Server) Publish(ctx context.Context, model *core.Model, side *core.SideInfo, gen uint64) (uint64, error) {
	if model == nil || side == nil {
		return s.snap.load().Gen, fmt.Errorf("serve: publish with nil model or side")
	}
	cmd := writerCmd{
		pub:   &Snapshot{Gen: gen, Model: model, Side: side, Created: s.opts.now()},
		reply: make(chan writerResult, 1),
	}
	select {
	case s.cmds <- cmd:
	case <-ctx.Done():
		return s.snap.load().Gen, ctx.Err()
	case <-s.quit:
		return s.snap.load().Gen, fmt.Errorf("serve: server closed")
	}
	select {
	case res := <-cmd.reply:
		return res.gen, res.err
	case <-ctx.Done():
		return s.snap.load().Gen, ctx.Err()
	}
}

// handlePublish applies a Publish command on the writer goroutine. Stale or
// duplicate generations are no-ops so replication retries and races cannot
// move a node backwards.
func (s *Server) handlePublish(snap *Snapshot) writerResult {
	cur := s.snap.load()
	if snap.Gen <= cur.Gen {
		return writerResult{gen: cur.Gen}
	}
	s.publish(snap)
	s.met.Snapshot.Swaps.Add(1)
	s.met.Replication.Applied.Add(1)
	return writerResult{gen: snap.Gen}
}

// writerLoop is the single writer: it serializes every model mutation and
// snapshot save, so UpdateOnline never races with itself and snapshot
// generations observe a total order.
func (s *Server) writerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.drain:
			// Graceful exit: finish everything already queued (handlers shed
			// new commands once closing is set), then persist a final
			// best-effort snapshot and stop.
			for {
				select {
				case <-s.quit:
					return
				case cmd := <-s.cmds:
					cmd.reply <- s.dispatch(cmd)
				default:
					if s.opts.SnapshotPath != "" {
						s.handleSave()
					}
					return
				}
			}
		case cmd := <-s.cmds:
			cmd.reply <- s.dispatch(cmd)
		}
	}
}

func (s *Server) dispatch(cmd writerCmd) writerResult {
	switch {
	case cmd.save:
		return s.handleSave()
	case cmd.pub != nil:
		return s.handlePublish(cmd.pub)
	default:
		return s.handleObserve(cmd.batch)
	}
}

func (s *Server) handleObserve(batch *tcss.ObserveBatch) writerResult {
	cur := s.snap.load()
	// The breaker guards the model-mutation path: while open, observes are
	// rejected instantly (readers keep the last good snapshot) until the
	// backoff admits a probe.
	if err := s.brk.allow(); err != nil {
		s.met.Reliability.BreakerRejected.Add(1)
		return writerResult{gen: cur.Gen, err: err}
	}
	added, model, side, err := s.observeOnce(batch)
	if err != nil {
		s.met.Reliability.ObserveFailures.Add(1)
		switch {
		case errors.Is(err, core.ErrCompactModel):
			// A growth batch on a compact model is a routing/configuration
			// problem, not a model-path fault: count it separately and keep
			// the breaker closed so in-range observes still flow.
			s.met.ObserveStats.RejectedCompact.Add(1)
		case errors.Is(err, core.ErrOutOfRange):
			s.met.ObserveStats.RejectedOutOfRange.Add(1)
		default:
			if s.brk.failure(err) {
				s.met.Reliability.BreakerTrips.Add(1)
			}
		}
		return writerResult{gen: cur.Gen, err: err}
	}
	if s.brk.success() {
		s.met.Reliability.BreakerRecoveries.Add(1)
	}
	// Pure growth (arrivals without novel cells) still publishes: the source
	// returns a fresh model object whenever dimensions changed.
	if added == 0 && model == cur.Model {
		s.met.ObserveStats.Noop.Add(1)
		return writerResult{gen: cur.Gen, users: cur.Model.I, pois: cur.Model.J}
	}
	if grew := model.I - cur.Model.I; grew > 0 {
		s.met.ObserveStats.GrownUsers.Add(int64(grew))
	}
	if grew := model.J - cur.Model.J; grew > 0 {
		s.met.ObserveStats.GrownPOIs.Add(int64(grew))
	}
	next := &Snapshot{
		Gen:     cur.Gen + 1,
		Model:   model,
		Side:    side,
		Created: s.opts.now(),
	}
	s.publish(next)
	s.met.Snapshot.Swaps.Add(1)
	s.met.ObserveStats.Applied.Add(1)
	s.met.ObserveStats.CellsAdded.Add(int64(added))
	return writerResult{added: added, gen: next.Gen, users: model.I, pois: model.J}
}

// observeOnce runs one guarded observe: the injected fault seam first, then
// the source's transactional model update (which itself reverts on error).
func (s *Server) observeOnce(batch *tcss.ObserveBatch) (int, *core.Model, *core.SideInfo, error) {
	if err := s.opts.Faults.Before("observe"); err != nil {
		return 0, nil, nil, err
	}
	return s.src.Observe(*batch, s.opts.Online)
}

func (s *Server) handleSave() writerResult {
	snap := s.snap.load()
	if s.opts.SnapshotPath == "" {
		return writerResult{gen: snap.Gen, err: fmt.Errorf("serve: no snapshot path configured")}
	}
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			s.met.Reliability.SaveRetries.Add(1)
			select {
			case <-time.After(saveRetryBackoff):
			case <-s.quit:
				return writerResult{gen: snap.Gen, err: err}
			}
		}
		if err = s.trySave(snap); err == nil {
			s.met.Snapshot.Saves.Add(1)
			return writerResult{gen: snap.Gen}
		}
		if attempt >= saveRetries {
			break
		}
	}
	s.met.Reliability.SaveFailures.Add(1)
	return writerResult{gen: snap.Gen, err: err}
}

// trySave is one snapshot-save attempt: the injected fault seam, a
// crash-safe rotated write of the v5 binary slab format (mmap-loadable for
// O(1) restart), and a read-back verification so a write the filesystem
// silently tore (short write, bit rot) is caught here — where a retry can fix
// it — instead of at the next restart. The read-back opens exactly the file
// a restart reads first, the way a restart opens it (mapped, nothing copied),
// and never the ladder: falling back to an intact path.1 would let a torn
// newest file pass.
func (s *Server) trySave(snap *Snapshot) error {
	if err := s.opts.Faults.Before("save"); err != nil {
		return err
	}
	path := s.opts.SnapshotPath
	if err := snap.Model.SaveBinaryRotate(s.opts.FS, path, s.opts.SnapshotKeep, snap.Gen); err != nil {
		return err
	}
	_, _, f, err := core.LoadFileMmap(path)
	if err != nil {
		if errors.Is(err, core.ErrChecksum) {
			s.met.Reliability.ChecksumRejectedLoads.Add(1)
		}
		return fmt.Errorf("serve: snapshot read-back: %w", err)
	}
	return f.Close()
}

// getScratch returns a pooled scoring scratch; putScratch recycles it.
func (s *Server) getScratch() *core.RecScratch {
	if sc, ok := s.scratch.Get().(*core.RecScratch); ok {
		return sc
	}
	return core.NewRecScratch(s.snap.load().Model)
}

func (s *Server) putScratch(sc *core.RecScratch) { s.scratch.Put(sc) }
