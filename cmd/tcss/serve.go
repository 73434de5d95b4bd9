package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcss"
	"tcss/internal/baselines"
	"tcss/internal/cluster"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/registry"
	"tcss/internal/serve"
)

// serveConfig is every `tcss serve` flag, plus what validate resolves them to.
type serveConfig struct {
	addr, preset, data, gran, modelPath, storage, snapshot   string
	checkpoint, resume, shardName, clusterShards, replicaOf  string
	seqModels, seqState, seqSave, abSpec, shadowOf           string
	seed                                                     int64
	epochs, rank, snapKeep, ckEvery, ckKeep, topN, cacheSize int
	maxInflight, maxQueue, onlineEp, coalesceBatch, vnodes   int
	seqEpochs, seqRank                                       int
	synthUsers, synthPOIs, synthTimes, synthRank             int
	drainWait, timeout, coalesceWin, syncEvery, syncWait     time.Duration
	grow, coalesce                                           bool
	halfLife                                                 float64
	firstGen, maxGenLag                                      uint64

	// Set by validate.
	g        tcss.Granularity
	mode     tcss.StorageMode
	seqNames []string
	abName   string
	abFrac   float64
	owns     func(user int) bool
}

func (c *serveConfig) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("tcss serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: tcss serve [flags]

Serves recommendations over HTTP: GET /v1/recommend, POST /v1/next,
GET /v1/explain, POST /v1/observe, POST /v1/snapshot/save, GET /metrics,
GET /healthz.

Flags:
`)
		fs.PrintDefaults()
	}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.preset, "preset", "", fmt.Sprintf("generate a preset dataset, one of %v", lbsn.PresetNames()))
	fs.StringVar(&c.data, "data", "", "load a dataset directory written by datagen")
	fs.StringVar(&c.gran, "granularity", "month", "time granularity: month, week or hour")
	fs.Int64Var(&c.seed, "seed", 7, "seed for generation, splitting and training")
	fs.IntVar(&c.epochs, "epochs", 0, "training epochs (0 = default)")
	fs.IntVar(&c.rank, "rank", 0, "embedding rank (0 = default 10)")
	fs.StringVar(&c.modelPath, "model", "", "serve a saved model instead of training (a binary file is memory-mapped, a torn one falls back to its rotated copies); its recorded generation is resumed")
	fs.StringVar(&c.storage, "storage", "", "serve with this factor storage: f64, f32, int8 (empty keeps the model's mode)")
	fs.StringVar(&c.snapshot, "snapshot", "", "enable POST /v1/snapshot/save writing the model (with generation) here")
	fs.IntVar(&c.snapKeep, "snapshot-keep", 0, "rotated prior snapshots to keep (path.1 ... path.N)")

	fs.StringVar(&c.checkpoint, "checkpoint", "", "write resumable mid-train checkpoints to this file while training")
	fs.IntVar(&c.ckEvery, "checkpoint-every", 0, "checkpoint period in epochs (0 = final epoch only)")
	fs.IntVar(&c.ckKeep, "checkpoint-keep", 0, "rotated prior checkpoints to keep (path.1 ... path.N)")
	fs.StringVar(&c.resume, "resume", "", "resume the pre-serve training from a checkpoint")
	fs.DurationVar(&c.drainWait, "drain", 10*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")

	fs.IntVar(&c.topN, "topn", 0, "default result count for /v1/recommend (0 = server default)")
	fs.IntVar(&c.cacheSize, "cache", 0, "response cache capacity (0 = server default, negative disables)")
	fs.IntVar(&c.maxInflight, "max-inflight", 0, "concurrent scoring requests (0 = server default)")
	fs.IntVar(&c.maxQueue, "max-queue", -1, "admission wait queue length (-1 = server default)")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-request deadline (0 = server default)")
	fs.IntVar(&c.onlineEp, "online-epochs", 0, "SGD epochs per observe batch (0 = default)")
	fs.BoolVar(&c.grow, "grow", false, "open-world mode: /v1/observe accepts new_users/new_pois and check-ins beyond the trained dimensions, growing the model in place")
	fs.Float64Var(&c.halfLife, "half-life", 0, "check-in decay half-life in observe steps; recent evidence outweighs stale (0 = no decay)")

	fs.BoolVar(&c.coalesce, "coalesce", false, "batch concurrent recommend requests through one factor-slab pass")
	fs.DurationVar(&c.coalesceWin, "coalesce-window", 0, "max wait for batch co-travellers (0 = server default 200µs)")
	fs.IntVar(&c.coalesceBatch, "coalesce-batch", 0, "batch flush threshold (0 = server default 32)")

	fs.StringVar(&c.shardName, "shard-name", "", "this node's shard name inside a cluster (enables 421 on non-owned users with -cluster-shards)")
	fs.StringVar(&c.clusterShards, "cluster-shards", "", "comma-separated shard names forming the consistent-hash ring")
	fs.IntVar(&c.vnodes, "vnodes", 0, "ring virtual nodes per shard (0 = default)")
	fs.StringVar(&c.replicaOf, "replica-of", "", "primary base URL; serve as a read-only replica fed by snapshot shipping")
	fs.DurationVar(&c.syncEvery, "sync-every", 500*time.Millisecond, "replica snapshot-shipping poll interval")
	fs.DurationVar(&c.syncWait, "sync-wait", 30*time.Second, "replica budget for the initial sync against the primary")
	fs.Uint64Var(&c.firstGen, "first-gen", 0, "snapshot generation to publish at startup (overrides a loaded model's)")
	fs.Uint64Var(&c.maxGenLag, "max-gen-lag", 0, "replica staleness bound: report degraded health when this many generations behind the primary (0 = unbounded)")

	fs.StringVar(&c.seqModels, "seq", "", "comma-separated sequential models to train and register for /v1/next: STRNN, STGN, STAN")
	fs.IntVar(&c.seqEpochs, "seq-epochs", 3, "sequential model training epochs")
	fs.IntVar(&c.seqRank, "seq-rank", 8, "sequential model embedding rank")
	fs.StringVar(&c.seqState, "seq-state", "", "load a saved sequential model state (kind recorded in the file) and register it")
	fs.StringVar(&c.seqSave, "seq-save", "", "save each trained sequential model's state here (suffixed .NAME when several)")
	fs.StringVar(&c.abSpec, "ab", "", "A/B experiment NAME=FRACTION: deterministically route that fraction of users to model NAME")
	fs.StringVar(&c.shadowOf, "shadow", "", "shadow model: score every request off-path on this model and record top-K agreement")

	fs.IntVar(&c.synthUsers, "synth-users", 0, "serve a deterministic synthetic model with this many users (skips dataset and training)")
	fs.IntVar(&c.synthPOIs, "synth-pois", 1000, "synthetic model POI count")
	fs.IntVar(&c.synthTimes, "synth-times", 12, "synthetic model time units (12=month, 53=week, 24=hour)")
	fs.IntVar(&c.synthRank, "synth-rank", 8, "synthetic model embedding rank")
	return fs
}

// validate rejects every contradiction knowable from the flags alone — no
// dataset is generated and no file opened before it passes — and resolves
// the name-valued flags. A dependent flag that is merely unused
// (-snapshot-keep without -snapshot, -sync-every on a primary) is harmless
// and passes.
func (c *serveConfig) validate() error {
	var err error
	if c.g, err = parseGranularity(c.gran); err != nil {
		return err
	}
	if c.mode, err = tcss.ParseStorageMode(c.storage); err != nil {
		return err
	}
	if c.seqModels != "" {
		for _, name := range strings.Split(c.seqModels, ",") {
			name = strings.TrimSpace(name)
			if _, ok := baselines.SeqLookup(name); !ok {
				return fmt.Errorf("unknown sequential model %q (want STRNN, STGN or STAN)", name)
			}
			c.seqNames = append(c.seqNames, name)
		}
	}
	if c.abSpec != "" {
		name, fracStr, _ := strings.Cut(c.abSpec, "=")
		frac, err := strconv.ParseFloat(fracStr, 64)
		if err != nil || name == "" || frac <= 0 || frac >= 1 {
			return fmt.Errorf("-ab wants NAME=FRACTION with 0 < FRACTION < 1, got %q", c.abSpec)
		}
		c.abName, c.abFrac = name, frac
	}
	if (c.abSpec != "" || c.shadowOf != "") && c.seqModels == "" && c.seqState == "" {
		return errors.New("-ab/-shadow need a second model: pass -seq or -seq-state")
	}

	if c.synthUsers > 0 {
		// The synthetic model has no dataset, is never trained and is served
		// as built; a flag that asks for any of those would be ignored.
		if c.preset+c.data+c.modelPath+c.storage+c.resume+c.checkpoint+c.seqModels+c.seqState+c.abSpec+c.shadowOf != "" {
			return errors.New("-synth-users is incompatible with -preset -data -model -storage -resume -checkpoint -seq -seq-state -ab -shadow (no dataset, no training, no second model)")
		}
	} else if err := checkSource(c.preset, c.data); err != nil {
		return err
	}
	if c.modelPath != "" && (c.resume != "" || c.checkpoint != "") {
		return errors.New("-resume/-checkpoint are incompatible with -model (a loaded model is not trained)")
	}
	if c.grow && c.replicaOf != "" {
		return errors.New("-grow is incompatible with -replica-of (a replica answers every observe 421)")
	}
	if c.grow && c.mode != tcss.StorageFloat64 {
		return fmt.Errorf("-grow needs float64 factors, not -storage %s (growth batches would answer 503)", c.storage)
	}

	if c.clusterShards != "" {
		if c.shardName == "" {
			return errors.New("-cluster-shards requires -shard-name")
		}
		names := strings.Split(c.clusterShards, ",")
		if !slices.Contains(names, c.shardName) {
			// Ring.Owns of an unknown name owns nothing: the node would boot
			// healthy and answer 421 for every user.
			return fmt.Errorf("-shard-name %q is not one of -cluster-shards %q", c.shardName, c.clusterShards)
		}
		ring, err := cluster.NewRing(names, c.vnodes)
		if err != nil {
			return err
		}
		c.owns = ring.Owns(c.shardName)
	}
	return nil
}

// serveMain implements `tcss serve`: train (or load) a model and serve it
// over HTTP with the internal/serve online recommendation server. Boot order:
// parse → validate → model source → registry → server → (replica sync) →
// listen → drain.
func serveMain(args []string) error {
	var c serveConfig
	c.flags().Parse(args)
	if err := c.validate(); err != nil {
		return err
	}
	return c.run(context.Background())
}

func (c *serveConfig) run(ctx context.Context) error {
	src, rec, mf, err := c.source()
	if mf != nil {
		// A binary model is served out of its mapping, which stays open for
		// the process lifetime.
		defer mf.Close()
	}
	if err != nil {
		return err
	}
	firstGen := c.firstGen
	if firstGen == 0 && mf != nil {
		firstGen = mf.Generation
	}
	_, side := src.Snapshot()

	reg, err := c.registry(rec, side.Dist, firstGen)
	if err != nil {
		return err
	}
	srv, err := serve.NewFromSource(src, c.options(firstGen, reg))
	if err != nil {
		return err
	}
	defer srv.Close()

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections, drains
	// in-flight requests, then drains the writer (final best-effort snapshot
	// save) — all within the -drain budget.
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if c.replicaOf != "" {
		if err := c.replicate(ctx, srv, side.Dist); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Addr: c.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	fmt.Printf("serving generation %d on %s (/v1/recommend /v1/next /v1/explain /v1/observe /metrics /healthz)\n",
		srv.Generation(), c.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal during drain kills the process immediately
	fmt.Println("shutting down...")
	drainCtx, cancel := context.WithTimeout(context.Background(), c.drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tcss serve: http drain:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tcss serve: writer drain:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Printf("shutdown complete at generation %d\n", srv.Generation())
	return nil
}

// source builds what the node serves: the synthetic model, or a dataset with
// a loaded (-model) or freshly trained model attached. rec is nil for the
// synthetic model; mf is non-nil when a model file was opened and must be
// closed by the caller, also on error.
func (c *serveConfig) source() (serve.Source, *tcss.Recommender, *tcss.ModelFile, error) {
	if c.synthUsers > 0 {
		// Synthetic serving mode: a deterministic seeded model at any shape,
		// no dataset, no training. Used for production-scale cluster tests
		// where every node (and the verifying load generator) rebuilds the
		// identical model from the same arguments.
		model, side, err := tcss.SynthServing(c.synthUsers, c.synthPOIs, c.synthTimes, c.synthRank, c.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("synthetic model: users=%d pois=%d times=%d rank=%d seed=%d (%d factor bytes)\n",
			model.I, model.J, model.K, model.Rank, c.seed, model.FactorBytes())
		return &serve.StaticSource{Model: model, Side: side, Gran: tcss.SynthGranularity(c.synthTimes)}, nil, nil, nil
	}

	ds, err := loadDataset(c.preset, c.data, c.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := tcss.DefaultConfig()
	cfg.Seed = c.seed
	if c.epochs > 0 {
		cfg.Epochs = c.epochs
	}
	if c.rank > 0 {
		cfg.Rank = c.rank
	}
	var (
		rec *tcss.Recommender
		mf  *tcss.ModelFile
	)
	if c.modelPath != "" {
		// A crash mid-save leaves the newest snapshot torn; the rotation
		// ladder still holds the previous intact one.
		var m *tcss.Model
		if m, mf, err = tcss.OpenModel(c.modelPath); err != nil {
			return nil, nil, nil, err
		}
		// The one contradiction only the file can show: growth needs float64
		// factors, and nothing on the command line converts these.
		if c.grow && c.storage == "" && m.Mode != tcss.StorageFloat64 {
			return nil, nil, mf, fmt.Errorf("-grow needs float64 factors but %s stores %s: add -storage f64", mf.From, m.Mode)
		}
		if rec, err = tcss.AttachModel(m, ds, c.g, cfg, 0.8); err != nil {
			return nil, nil, mf, err
		}
		fmt.Printf("loaded model %s (format v%d, generation %d, memory-mapped: %v)\n", mf.From, mf.Version, mf.Generation, mf.Mapped)
	} else {
		// A killed serve process can restart with -resume pointing at the
		// periodic mid-train snapshot and continue training where it left
		// off instead of starting over.
		cfg.CheckpointPath = c.checkpoint
		cfg.CheckpointEvery = c.ckEvery
		cfg.CheckpointKeep = c.ckKeep
		cfg.ResumePath = c.resume
		s := ds.Summary()
		fmt.Printf("dataset %s: users=%d pois=%d check-ins=%d\n", ds.Name, s.Users, s.POIs, s.CheckIns)
		fmt.Printf("training TCSS (rank=%d, epochs=%d)...\n", cfg.Rank, cfg.Epochs)
		start := time.Now()
		if rec, err = tcss.Fit(ds, c.g, cfg); err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("trained in %s\n", time.Since(start).Round(time.Millisecond))
	}

	if c.storage != "" {
		if rec.Model, err = rec.Model.ToStorage(c.mode); err != nil {
			return nil, nil, mf, err
		}
	}
	fmt.Printf("model storage %s: %d factor bytes (%.1f per user)\n",
		rec.Model.Mode, rec.Model.FactorBytes(), float64(rec.Model.FactorBytes())/float64(rec.Model.I))
	if c.replicaOf != "" {
		// Replicas never observe: serve the fitted model read-only and
		// let snapshot shipping advance it.
		return &serve.StaticSource{Model: rec.Model, Side: rec.Side, Gran: rec.Gran}, rec, mf, nil
	}
	return &serve.RecommenderSource{Rec: rec}, rec, mf, nil
}

// registry trains or loads the sequential baselines that serve alongside the
// tensor model and configures A/B and shadow routing over the set; nil when
// no such flag is set. The server registers the tensor model itself as
// primary "tcss".
func (c *serveConfig) registry(rec *tcss.Recommender, dist *geo.DistanceMatrix, firstGen uint64) (*registry.Registry, error) {
	if len(c.seqNames) == 0 && c.seqState == "" {
		return nil, nil
	}
	reg := registry.New()
	seqGen := firstGen
	if seqGen == 0 {
		seqGen = 1
	}
	for _, name := range c.seqNames {
		m, _ := baselines.SeqLookup(name)
		ctx := &baselines.Context{
			Train:  rec.Train,
			Social: rec.Dataset.Social,
			Dist:   dist,
			Rank:   c.seqRank,
			Epochs: c.seqEpochs,
			Seed:   c.seed,
		}
		start := time.Now()
		if err := m.(baselines.Recommender).Fit(ctx); err != nil {
			return nil, fmt.Errorf("fitting %s: %w", name, err)
		}
		fmt.Printf("trained %s (rank=%d, epochs=%d) in %s\n", name, c.seqRank, c.seqEpochs, time.Since(start).Round(time.Millisecond))
		if c.seqSave != "" {
			path := c.seqSave
			if len(c.seqNames) > 1 {
				path += "." + name
			}
			if err := baselines.SaveSeqState(nil, path, 1, seqGen, m); err != nil {
				return nil, fmt.Errorf("saving %s state: %w", name, err)
			}
			fmt.Printf("saved %s state to %s (generation %d)\n", name, path, seqGen)
		}
		if err := reg.Register(registry.NewSeqScorer(m, seqGen)); err != nil {
			return nil, err
		}
	}
	if c.seqState != "" {
		m, gen, from, err := baselines.LoadSeqStateFallback(c.seqState, dist)
		if err != nil {
			return nil, err
		}
		if err := reg.Register(registry.NewSeqScorer(m, gen)); err != nil {
			return nil, err
		}
		fmt.Printf("loaded %s state %s (generation %d)\n", m.Name(), from, gen)
	}
	if c.abSpec != "" {
		if err := reg.SetAB(c.abName, c.abFrac); err != nil {
			return nil, err
		}
		fmt.Printf("A/B split: %.0f%% of users routed to %s\n", c.abFrac*100, c.abName)
	}
	if c.shadowOf != "" {
		if err := reg.SetShadow(c.shadowOf); err != nil {
			return nil, err
		}
		fmt.Printf("shadow scoring on %s\n", c.shadowOf)
	}
	return reg, nil
}

func (c *serveConfig) options(firstGen uint64, reg *registry.Registry) serve.Options {
	online := tcss.DefaultOnlineConfig()
	if c.onlineEp > 0 {
		online.Epochs = c.onlineEp
	}
	online.DecayHalfLife = c.halfLife
	role := ""
	switch {
	case c.replicaOf != "":
		role = "replica"
	case c.shardName != "":
		role = "primary"
	}
	return serve.Options{
		TopNDefault:     c.topN,
		RequestTimeout:  c.timeout,
		MaxInflight:     c.maxInflight,
		MaxQueue:        c.maxQueue,
		CacheSize:       c.cacheSize,
		Online:          online,
		Grow:            c.grow,
		SnapshotPath:    c.snapshot,
		SnapshotKeep:    c.snapKeep,
		FirstGeneration: firstGen,
		Coalesce:        c.coalesce,
		CoalesceWindow:  c.coalesceWin,
		CoalesceBatch:   c.coalesceBatch,
		ShardName:       c.shardName,
		MaxGenLag:       c.maxGenLag,
		Role:            role,
		Registry:        reg,
		Owns:            c.owns,
	}
}

// replicate catches the replica up to its primary's generation before the
// node listens, then keeps polling in the background until ctx ends.
func (c *serveConfig) replicate(ctx context.Context, srv *serve.Server, dist *geo.DistanceMatrix) error {
	repl := &cluster.Replicator{
		Server:   srv,
		Primary:  strings.TrimRight(c.replicaOf, "/"),
		Dist:     dist,
		Interval: c.syncEvery,
		// One sync cycle may legitimately take as long as the initial
		// catch-up budget allows (a full snapshot on a loaded host);
		// the timeout exists to unwedge hung primaries, not to race
		// slow-but-progressing transfers.
		SyncTimeout: c.syncWait,
	}
	deadline := time.Now().Add(c.syncWait)
	for {
		gen, _, err := repl.SyncOnce(ctx)
		if err == nil {
			fmt.Printf("replica of %s: synced at generation %d\n", c.replicaOf, gen)
			break
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("initial sync against %s: %w", c.replicaOf, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	go repl.Run(ctx)
	return nil
}
