package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
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

// serveMain implements `tcss serve`: train (or load) a model and serve it
// over HTTP with the internal/serve online recommendation server.
func serveMain(args []string) {
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
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		preset    = fs.String("preset", "", fmt.Sprintf("generate a preset dataset, one of %v", lbsn.PresetNames()))
		data      = fs.String("data", "", "load a dataset directory written by datagen")
		gran      = fs.String("granularity", "month", "time granularity: month, week or hour")
		seed      = fs.Int64("seed", 7, "seed for generation, splitting and training")
		epochs    = fs.Int("epochs", 0, "training epochs (0 = default)")
		rank      = fs.Int("rank", 0, "embedding rank (0 = default 10)")
		modelPath = fs.String("model", "", "serve a saved model instead of training (a binary file is memory-mapped, a torn one falls back to its rotated copies); its recorded generation is resumed")
		storage   = fs.String("storage", "", "serve with this factor storage: f64, f32, int8 (empty keeps the model's mode)")
		snapshot  = fs.String("snapshot", "", "enable POST /v1/snapshot/save writing the model (with generation) here")
		snapKeep  = fs.Int("snapshot-keep", 0, "rotated prior snapshots to keep (path.1 ... path.N)")

		checkpoint = fs.String("checkpoint", "", "write resumable mid-train checkpoints to this file while training")
		ckEvery    = fs.Int("checkpoint-every", 0, "checkpoint period in epochs (0 = final epoch only)")
		ckKeep     = fs.Int("checkpoint-keep", 0, "rotated prior checkpoints to keep (path.1 ... path.N)")
		resume     = fs.String("resume", "", "resume the pre-serve training from a checkpoint")
		drainWait  = fs.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")

		topN        = fs.Int("topn", 0, "default result count for /v1/recommend (0 = server default)")
		cacheSize   = fs.Int("cache", 0, "response cache capacity (0 = server default, negative disables)")
		maxInflight = fs.Int("max-inflight", 0, "concurrent scoring requests (0 = server default)")
		maxQueue    = fs.Int("max-queue", -1, "admission wait queue length (-1 = server default)")
		timeout     = fs.Duration("timeout", 0, "per-request deadline (0 = server default)")
		onlineEp    = fs.Int("online-epochs", 0, "SGD epochs per observe batch (0 = default)")
		grow        = fs.Bool("grow", false, "open-world mode: /v1/observe accepts new_users/new_pois and check-ins beyond the trained dimensions, growing the model in place")
		halfLife    = fs.Float64("half-life", 0, "check-in decay half-life in observe steps; recent evidence outweighs stale (0 = no decay)")

		coalesce      = fs.Bool("coalesce", false, "batch concurrent recommend requests through one factor-slab pass")
		coalesceWin   = fs.Duration("coalesce-window", 0, "max wait for batch co-travellers (0 = server default 200µs)")
		coalesceBatch = fs.Int("coalesce-batch", 0, "batch flush threshold (0 = server default 32)")

		shardName     = fs.String("shard-name", "", "this node's shard name inside a cluster (enables 421 on non-owned users with -cluster-shards)")
		clusterShards = fs.String("cluster-shards", "", "comma-separated shard names forming the consistent-hash ring")
		vnodes        = fs.Int("vnodes", 0, "ring virtual nodes per shard (0 = default)")
		replicaOf     = fs.String("replica-of", "", "primary base URL; serve as a read-only replica fed by snapshot shipping")
		syncEvery     = fs.Duration("sync-every", 500*time.Millisecond, "replica snapshot-shipping poll interval")
		syncWait      = fs.Duration("sync-wait", 30*time.Second, "replica budget for the initial sync against the primary")
		firstGenFlag  = fs.Uint64("first-gen", 0, "snapshot generation to publish at startup (overrides a loaded model's)")
		maxGenLag     = fs.Uint64("max-gen-lag", 0, "replica staleness bound: report degraded health when this many generations behind the primary (0 = unbounded)")

		seqModels = fs.String("seq", "", "comma-separated sequential models to train and register for /v1/next: STRNN, STGN, STAN")
		seqEpochs = fs.Int("seq-epochs", 3, "sequential model training epochs")
		seqRank   = fs.Int("seq-rank", 8, "sequential model embedding rank")
		seqState  = fs.String("seq-state", "", "load a saved sequential model state (kind recorded in the file) and register it")
		seqSave   = fs.String("seq-save", "", "save each trained sequential model's state here (suffixed .NAME when several)")
		abSpec    = fs.String("ab", "", "A/B experiment NAME=FRACTION: deterministically route that fraction of users to model NAME")
		shadowOf  = fs.String("shadow", "", "shadow model: score every request off-path on this model and record top-K agreement")

		synthUsers = fs.Int("synth-users", 0, "serve a deterministic synthetic model with this many users (skips dataset and training)")
		synthPOIs  = fs.Int("synth-pois", 1000, "synthetic model POI count")
		synthTimes = fs.Int("synth-times", 12, "synthetic model time units (12=month, 53=week, 24=hour)")
		synthRank  = fs.Int("synth-rank", 8, "synthetic model embedding rank")
	)
	fs.Parse(args)

	var (
		rec      *tcss.Recommender
		src      serve.Source
		dist     *geo.DistanceMatrix
		firstGen uint64
	)
	if *synthUsers > 0 {
		// Synthetic serving mode: a deterministic seeded model at any shape,
		// no dataset, no training. Used for production-scale cluster tests
		// where every node (and the verifying load generator) rebuilds the
		// identical model from the same arguments.
		model, side, err := tcss.SynthServing(*synthUsers, *synthPOIs, *synthTimes, *synthRank, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcss serve:", err)
			os.Exit(1)
		}
		src = &serve.StaticSource{Model: model, Side: side, Gran: tcss.SynthGranularity(*synthTimes)}
		dist = side.Dist
		fmt.Printf("synthetic model: users=%d pois=%d times=%d rank=%d seed=%d (%d factor bytes)\n",
			model.I, model.J, model.K, model.Rank, *seed, model.FactorBytes())
	} else {
		ds, err := loadDataset(*preset, *data, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcss serve:", err)
			os.Exit(1)
		}
		g, err := parseGranularity(*gran)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcss serve:", err)
			os.Exit(1)
		}
		cfg := tcss.DefaultConfig()
		cfg.Seed = *seed
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		if *rank > 0 {
			cfg.Rank = *rank
		}
		if *modelPath != "" {
			// A crash mid-save leaves the newest snapshot torn; the rotation
			// ladder still holds the previous intact one. A binary model is
			// served out of its mapping, which stays open for the process
			// lifetime.
			m, f, err := tcss.OpenModel(*modelPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			defer f.Close()
			rec, err = tcss.AttachModel(m, ds, g, cfg, 0.8)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			firstGen = f.Generation
			fmt.Printf("loaded model %s (format v%d, generation %d, memory-mapped: %v)\n", f.From, f.Version, f.Generation, f.Mapped)
		} else {
			// A killed serve process can restart with -resume pointing at the
			// periodic mid-train snapshot and continue training where it left
			// off instead of starting over.
			cfg.CheckpointPath = *checkpoint
			cfg.CheckpointEvery = *ckEvery
			cfg.CheckpointKeep = *ckKeep
			cfg.ResumePath = *resume
			s := ds.Summary()
			fmt.Printf("dataset %s: users=%d pois=%d check-ins=%d\n", ds.Name, s.Users, s.POIs, s.CheckIns)
			fmt.Printf("training TCSS (rank=%d, epochs=%d)...\n", cfg.Rank, cfg.Epochs)
			start := time.Now()
			rec, err = tcss.Fit(ds, g, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			fmt.Printf("trained in %s\n", time.Since(start).Round(time.Millisecond))
		}

		if *storage != "" {
			mode, err := tcss.ParseStorageMode(*storage)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			m, err := rec.Model.ToStorage(mode)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			rec.Model = m
		}
		fmt.Printf("model storage %s: %d factor bytes (%.1f per user)\n",
			rec.Model.Mode, rec.Model.FactorBytes(), float64(rec.Model.FactorBytes())/float64(rec.Model.I))
		if *replicaOf != "" {
			// Replicas never observe: serve the fitted model read-only and
			// let snapshot shipping advance it.
			src = &serve.StaticSource{Model: rec.Model, Side: rec.Side, Gran: rec.Gran}
		} else {
			src = &serve.RecommenderSource{Rec: rec}
		}
		dist = rec.Side.Dist
	}
	if *firstGenFlag > 0 {
		firstGen = *firstGenFlag
	}

	// Multi-model registry: train or load sequential baselines alongside the
	// tensor model, then configure A/B and shadow routing over the set. The
	// server registers the tensor model itself as primary "tcss".
	var reg *registry.Registry
	if *seqModels != "" || *seqState != "" || *abSpec != "" || *shadowOf != "" {
		if *synthUsers > 0 {
			fmt.Fprintln(os.Stderr, "tcss serve: -seq/-seq-state/-ab/-shadow need a real dataset and are incompatible with -synth-users")
			os.Exit(1)
		}
		reg = registry.New()
		seqGen := firstGen
		if seqGen == 0 {
			seqGen = 1
		}
		names := []string{}
		if *seqModels != "" {
			names = strings.Split(*seqModels, ",")
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			m, ok := baselines.SeqLookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "tcss serve: unknown sequential model %q (want STRNN, STGN or STAN)\n", name)
				os.Exit(1)
			}
			ctx := &baselines.Context{
				Train:  rec.Train,
				Social: rec.Dataset.Social,
				Dist:   rec.Side.Dist,
				Rank:   *seqRank,
				Epochs: *seqEpochs,
				Seed:   *seed,
			}
			start := time.Now()
			if err := m.(baselines.Recommender).Fit(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "tcss serve: fitting %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("trained %s (rank=%d, epochs=%d) in %s\n", name, *seqRank, *seqEpochs, time.Since(start).Round(time.Millisecond))
			if *seqSave != "" {
				path := *seqSave
				if len(names) > 1 {
					path += "." + name
				}
				if err := baselines.SaveSeqState(nil, path, 1, seqGen, m); err != nil {
					fmt.Fprintf(os.Stderr, "tcss serve: saving %s state: %v\n", name, err)
					os.Exit(1)
				}
				fmt.Printf("saved %s state to %s (generation %d)\n", name, path, seqGen)
			}
			if err := reg.Register(registry.NewSeqScorer(m, seqGen)); err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
		}
		if *seqState != "" {
			m, gen, from, err := baselines.LoadSeqStateFallback(*seqState, dist)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			if err := reg.Register(registry.NewSeqScorer(m, gen)); err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			fmt.Printf("loaded %s state %s (generation %d)\n", m.Name(), from, gen)
		}
		if *abSpec != "" {
			name, fracStr, ok := strings.Cut(*abSpec, "=")
			frac := 0.0
			if ok {
				var perr error
				frac, perr = strconv.ParseFloat(fracStr, 64)
				ok = perr == nil
			}
			if !ok || frac <= 0 || frac >= 1 {
				fmt.Fprintf(os.Stderr, "tcss serve: -ab wants NAME=FRACTION with 0 < FRACTION < 1, got %q\n", *abSpec)
				os.Exit(1)
			}
			if err := reg.SetAB(name, frac); err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			fmt.Printf("A/B split: %.0f%% of users routed to %s\n", frac*100, name)
		}
		if *shadowOf != "" {
			if err := reg.SetShadow(*shadowOf); err != nil {
				fmt.Fprintln(os.Stderr, "tcss serve:", err)
				os.Exit(1)
			}
			fmt.Printf("shadow scoring on %s\n", *shadowOf)
		}
	}

	online := tcss.DefaultOnlineConfig()
	if *onlineEp > 0 {
		online.Epochs = *onlineEp
	}
	online.DecayHalfLife = *halfLife
	role := ""
	switch {
	case *replicaOf != "":
		role = "replica"
	case *shardName != "":
		role = "primary"
	}
	opts := serve.Options{
		TopNDefault:     *topN,
		RequestTimeout:  *timeout,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		CacheSize:       *cacheSize,
		Online:          online,
		Grow:            *grow,
		SnapshotPath:    *snapshot,
		SnapshotKeep:    *snapKeep,
		FirstGeneration: firstGen,
		Coalesce:        *coalesce,
		CoalesceWindow:  *coalesceWin,
		CoalesceBatch:   *coalesceBatch,
		ShardName:       *shardName,
		MaxGenLag:       *maxGenLag,
		Role:            role,
		Registry:        reg,
	}
	if *clusterShards != "" {
		if *shardName == "" {
			fmt.Fprintln(os.Stderr, "tcss serve: -cluster-shards requires -shard-name")
			os.Exit(1)
		}
		ring, err := cluster.NewRing(strings.Split(*clusterShards, ","), *vnodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcss serve:", err)
			os.Exit(1)
		}
		opts.Owns = ring.Owns(*shardName)
	}
	srv, err := serve.NewFromSource(src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcss serve:", err)
		os.Exit(1)
	}
	defer srv.Close()

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections, drains
	// in-flight requests, then drains the writer (final best-effort snapshot
	// save) — all within the -drain budget.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *replicaOf != "" {
		// Replica: catch up to the primary's generation before listening,
		// then keep polling in the background.
		repl := &cluster.Replicator{
			Server:   srv,
			Primary:  strings.TrimRight(*replicaOf, "/"),
			Dist:     dist,
			Interval: *syncEvery,
			// One sync cycle may legitimately take as long as the initial
			// catch-up budget allows (a full snapshot on a loaded host);
			// the timeout exists to unwedge hung primaries, not to race
			// slow-but-progressing transfers.
			SyncTimeout: *syncWait,
		}
		deadline := time.Now().Add(*syncWait)
		for {
			gen, _, err := repl.SyncOnce(ctx)
			if err == nil {
				fmt.Printf("replica of %s: synced at generation %d\n", *replicaOf, gen)
				break
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "tcss serve: initial sync against %s: %v\n", *replicaOf, err)
				os.Exit(1)
			}
			time.Sleep(200 * time.Millisecond)
		}
		go repl.Run(ctx)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	fmt.Printf("serving generation %d on %s (/v1/recommend /v1/next /v1/explain /v1/observe /metrics /healthz)\n",
		srv.Generation(), *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "tcss serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal during drain kills the process immediately
	fmt.Println("shutting down...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tcss serve: http drain:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tcss serve: writer drain:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "tcss serve:", err)
		os.Exit(1)
	}
	fmt.Printf("shutdown complete at generation %d\n", srv.Generation())
}
