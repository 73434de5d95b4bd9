package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tcss"
	"tcss/internal/cluster"
	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/serve"
)

// scale sizes the inputs. fullScale is the benchmark; the tests run the same
// code at a few hundredths of it.
type scale struct {
	frac                float64 // multiplies op, warm-up, hot-key and probe iteration counts
	scanUsers, scanPOIs int     // synthetic serving model (K = 12, rank 10)
	kernelJ             [4]int  // catalogue sizes behind core.topn_ms.j2k / j32k / j128k / j256k
	lbsnUsers, lbsnPOIs int     // LBSN dataset size; 0 keeps the gowalla preset's 360 × 800
	setupReps           int     // set-ups per run; setup_s is their median
}

var fullScale = scale{
	frac: 1, scanUsers: 20000, scanPOIs: 131072,
	kernelJ: [4]int{2048, 32768, 131072, 262144}, setupReps: 3,
}

// n scales a full-size count, never below min.
func (s scale) n(full, min int) int {
	v := int(math.Round(float64(full) * s.frac))
	if v < min {
		return min
	}
	return v
}

// workload is one row of BENCHMARK.json's workloads plus what the harness
// needs to run it. Every workload is a closed loop: callers of a recommender
// wait for the reply.
type workload struct {
	name       string
	conns      int           // closed-loop connections (1 for train-fit's single fit)
	rate       float64       // planned ops per second of -seconds, frozen: ops are fixed work, duration is an output
	limit      time.Duration // latency limit behind slo_frac, ≈ 4–10× the seed commit's p95
	block      int           // ops per block of summarize: 0.1–1 s of them, enough for a p95
	traceBlock int           // ops per block of the traced pass (newRecorder)
	setup      func(w *workload, seed int64, ops int, sc scale, dir string, rec *recorder) (env, error)
}

// The rates are what this sandbox (2 vCPU, Go 1.24) sustains when nothing
// else disturbs it; see README "Sizing".
var workloads = []*workload{
	{name: "node-scan", conns: 1, rate: 700, limit: 8 * time.Millisecond, block: 175, traceBlock: 50, setup: setupNodeScan},
	{name: "cluster-hot", conns: 2, rate: 17000, limit: 2 * time.Millisecond, block: 2000, traceBlock: 50, setup: setupClusterHot},
	{name: "node-write", conns: 1, rate: 150, limit: 100 * time.Millisecond, block: 30, traceBlock: 50, setup: setupNodeWrite},
	{name: "train-fit", conns: 1, rate: 10, limit: 400 * time.Millisecond, block: 10, traceBlock: 4, setup: setupTrainFit},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plannedOps is the fixed op count of a run.
func (w *workload) plannedOps(seconds int, sc scale) int {
	return sc.n(int(w.rate*float64(seconds)), 8)
}

// phase is the outcome of one measured phase.
type phase struct {
	samples []sample
	wall    time.Duration
	results []opResult // serving workloads
	notes   map[string]float64
}

// env is a set-up workload: the program under test, started and warmed up,
// and the planned ops.
type env interface {
	// measure executes the planned ops once; a set-up env is always measured.
	// With a recorder it is the traced replay: one connection, spans on
	// alternate blocks. The canary, when given, runs between ops.
	measure(rec *recorder, can *canary) (*phase, error)
	// verify checks the outputs of the phase, marks wrong ops in bad, and
	// returns what a golden would pin. A non-nil error is a violated
	// fixed-work guard or an output that is wrong as a whole.
	verify(ph *phase, bad []bool) (*golden, error)
	close()
}

// rng returns the seeded source of one input stream of a run.
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

const (
	streamModel = iota
	streamWarm
	streamOps
	streamSample
	streamProbe
)

// scanModel builds the synthetic serving model: factors filled uniformly in
// [-1, 1) from the seed, and the side information /v1/recommend reads (empty
// skip lists). tcss.SynthServing is not used because its dense J×J distance
// matrix caps J near 6k; recommend never reads Dist, so two points suffice.
func scanModel(seed int64, users, pois int) (*core.Model, *core.SideInfo) {
	m := core.NewModel(users, pois, lbsn.Month.Len(), 10)
	r := rng(seed, streamModel)
	for t := range m.H {
		m.H[t] = r.Float64()*2 - 1
	}
	for _, data := range [][]float64{m.U1.Data, m.U2.Data, m.U3.Data} {
		for i := range data {
			data[i] = r.Float64()*2 - 1
		}
	}
	side := &core.SideInfo{
		Dist:       geo.NewDistanceMatrix([]geo.Point{{Lat: 38.8, Lon: -77.3}, {Lat: 38.9, Lon: -77.2}}),
		EntropyW:   make([]float64, pois),
		OwnPOIs:    make([][]int, users),
		FriendPOIs: make([][]int, users),
	}
	for j := range side.EntropyW {
		side.EntropyW[j] = 1
	}
	return m, side
}

// readOps draws n reads uniformly over keys(r).
func readOps(r *rand.Rand, n int, key func(*rand.Rand) (user, t int)) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].user, ops[i].t = key(r)
	}
	return ops
}

// warmUp sends every op once and fails on any reply other than 200.
func warmUp(base string, ops []op) error {
	res, _ := load{base: base, conns: 1}.drive(ops)
	for i, r := range res {
		if r.status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d", i, r.status)
		}
	}
	return nil
}

// sampleOps picks the op indices whose replies are kept and recomputed.
func sampleOps(seed int64, ops, want int) map[int]bool {
	keep := make(map[int]bool, want)
	if ops <= want {
		for i := 0; i < ops; i++ {
			keep[i] = true
		}
		return keep
	}
	r := rng(seed, streamSample)
	for len(keep) < want {
		keep[r.Intn(ops)] = true
	}
	return keep
}

// verifySample is how many replies of a serving run are recomputed.
const verifySample = 1000

// servingEnv is a serving workload after set-up.
type servingEnv struct {
	w      *workload
	seed   int64
	base   string // where the client sends ops
	ops    []op
	sample map[int]bool
	// reference returns the recomputed ranking of sampled read i and, where
	// the model that served it is still at hand, the score of any POI.
	reference func(i int) (want []scored, scoreOf func(poi int) float64)
	// guard checks the workload's fixed-work contract after a phase.
	guard   func(ph *phase) error
	closers []func()
}

func (e *servingEnv) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// expose serves h on a loopback port for the life of e.
func (e *servingEnv) expose(h http.Handler) (string, error) {
	base, stop, err := listen(h)
	if err != nil {
		return "", err
	}
	e.closers = append(e.closers, stop)
	return base, nil
}

// node starts a read-only serve node over (m, side) for the life of e, its
// handler timed as a serve.handler span under parent.
func (e *servingEnv) node(m *core.Model, side *core.SideInfo, opts serve.Options, rec *recorder, parent string) (string, error) {
	srv, err := serve.NewFromSource(&serve.StaticSource{Model: m, Side: side, Gran: lbsn.Month}, opts)
	if err != nil {
		return "", err
	}
	e.closers = append(e.closers, srv.Close)
	return e.expose(rec.wrap(spanHandler, parent, srv.Handler()))
}

func (e *servingEnv) measure(rec *recorder, can *canary) (*phase, error) {
	l := load{base: e.base, conns: e.w.conns, keep: func(i int) bool { return e.sample[i] }, rec: rec, canary: can}
	if rec != nil {
		l.conns = 1 // one request in flight makes parent and child unambiguous
	}
	res, wall := l.drive(e.ops)
	ph := &phase{wall: wall, results: res, samples: make([]sample, len(res)), notes: map[string]float64{}}
	for i, r := range res {
		ph.samples[i] = sample{end: r.end, lat: r.lat, ok: r.status == http.StatusOK}
	}
	return ph, nil
}

func (e *servingEnv) verify(ph *phase, bad []bool) (*golden, error) {
	var firstErr error
	fail := func(i int, err error) {
		bad[i] = true
		if firstErr == nil {
			firstErr = fmt.Errorf("op %d: %w", i, err)
		}
	}
	var observes uint64
	for i := range ph.results {
		r, o := &ph.results[i], e.ops[i]
		switch {
		case r.status != http.StatusOK:
			fail(i, fmt.Errorf("status %d", r.status))
		case o.observe:
			observes++
			var got observeBody
			if err := json.Unmarshal(r.body, &got); err != nil {
				fail(i, err)
			} else if got.Added == 0 || got.Generation != observes {
				fail(i, fmt.Errorf("observe %d added %d cells as generation %d", observes, got.Added, got.Generation))
			}
		case e.sample[i]:
			want, scoreOf := e.reference(i)
			if err := checkRecommend(r.body, o, want, scoreOf); err != nil {
				fail(i, err)
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "verify:", firstErr)
	}
	if err := e.guard(ph); err != nil {
		return nil, err
	}
	return &golden{Workload: e.w.name, Seed: e.seed, Ops: len(e.ops),
		Checksum: fmt.Sprintf("%016x", bodyChecksum(ph.results))}, nil
}

// nodeMetrics is the part of a serve node's /metrics the guards read.
type nodeMetrics struct {
	Shed     int64 `json:"shed_503"`
	Deadline int64 `json:"deadline_504"`
	Cache    struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"cache"`
	Snapshot struct {
		Generation uint64 `json:"generation"`
	} `json:"snapshot"`
}

// gatewayMetrics is the part of the gateway's merged /metrics the guards read.
type gatewayMetrics struct {
	Gateway struct {
		Failovers     int64 `json:"failovers"`
		Retries       int64 `json:"retries"`
		BackendErrors int64 `json:"backend_errors"`
		Hedges        int64 `json:"hedges"`
	} `json:"gateway"`
}

func scrape(base string, into any) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	body, err := fetch(client, base+"/metrics")
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// staticReference recomputes sampled reads against a model that never
// changes, once per distinct key.
func staticReference(ops []op, m *core.Model) func(int) ([]scored, func(int) float64) {
	done := make(map[[2]int][]scored)
	return func(i int) ([]scored, func(int) float64) {
		o := ops[i]
		want, ok := done[[2]int{o.user, o.t}]
		if !ok {
			want = refTopN(m, o.user, o.t, 10, nil)
			done[[2]int{o.user, o.t}] = want
		}
		return want, func(poi int) float64 { return m.Score(o.user, poi, o.t) }
	}
}

// setupNodeScan: one read-only node over a J = 131 072 catalogue, restarted
// the way production restarts (binary snapshot, mmap), every request a
// different key.
func setupNodeScan(w *workload, seed int64, nOps int, sc scale, dir string, rec *recorder) (_ env, err error) {
	e := &servingEnv{w: w, seed: seed}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	built, side := scanModel(seed, sc.scanUsers, sc.scanPOIs)
	path := filepath.Join(dir, fmt.Sprintf("node-scan.seed%d.bin", seed))
	e.closers = append(e.closers, func() { os.Remove(path) })
	if err := built.SaveFileBinary(path, 0); err != nil {
		return nil, err
	}
	m, _, mapping, err := core.LoadFileMmap(path)
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { mapping.Close() })
	base, err := e.node(m, side, serve.DefaultOptions(), rec, spanClient)
	if err != nil {
		return nil, err
	}
	e.base = base

	key := func(r *rand.Rand) (int, int) { return r.Intn(m.I), r.Intn(m.K) }
	if err := warmUp(base, readOps(rng(seed, streamWarm), sc.n(700, 4), key)); err != nil {
		return nil, err
	}
	e.ops = readOps(rng(seed, streamOps), nOps, key)
	e.sample = sampleOps(seed, nOps, verifySample)
	e.reference = staticReference(e.ops, built)

	var before nodeMetrics
	if err := scrape(base, &before); err != nil {
		return nil, err
	}
	e.guard = func(ph *phase) error {
		var after nodeMetrics
		if err := scrape(base, &after); err != nil {
			return err
		}
		hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
		ratio := float64(hits) / float64(hits+misses)
		ph.notes["cache_hit_ratio"] = ratio
		if ratio >= 0.05 {
			return fmt.Errorf("node-scan: cache hit ratio %.3f, the workload must stay below 0.05", ratio)
		}
		return nil
	}
	return e, nil
}

// setupClusterHot: the same model behind 2 shards × (primary + replica) and
// the gateway, five loopback listeners, every request a hot key.
func setupClusterHot(w *workload, seed int64, nOps int, sc scale, _ string, rec *recorder) (_ env, err error) {
	e := &servingEnv{w: w, seed: seed}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	m, side := scanModel(seed, sc.scanUsers, sc.scanPOIs)
	names := []string{"shard-0", "shard-1"}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return nil, err
	}
	sets := make([]cluster.ShardSet, len(names))
	for s, name := range names {
		sets[s].Name = name
		for _, role := range []string{"primary", "replica"} {
			opts := serve.DefaultOptions()
			opts.ShardName, opts.Role, opts.Owns = name, role, ring.Owns(name)
			base, err := e.node(m, side, opts, rec, spanGateway)
			if err != nil {
				return nil, err
			}
			if role == "primary" {
				sets[s].Primary = base
			} else {
				sets[s].Replicas = []string{base}
			}
		}
	}
	gw, err := cluster.NewGateway(sets, cluster.GatewayOptions{})
	if err != nil {
		return nil, err
	}
	// The zero GatewayOptions route backend hops through http.DefaultClient.
	e.closers = append(e.closers, http.DefaultClient.CloseIdleConnections)
	base, err := e.expose(rec.wrap(spanGateway, spanClient, gw.Handler()))
	if err != nil {
		return nil, err
	}
	e.base = base

	r := rng(seed, streamWarm)
	hot := make([]op, sc.n(512, 4))
	seen := make(map[[2]int]bool, len(hot))
	for i := range hot {
		k := [2]int{r.Intn(m.I), r.Intn(m.K)}
		for seen[k] {
			k = [2]int{r.Intn(m.I), r.Intn(m.K)}
		}
		seen[k] = true
		hot[i].user, hot[i].t = k[0], k[1]
	}
	if err := warmUp(base, hot); err != nil {
		return nil, err
	}
	e.ops = readOps(rng(seed, streamOps), nOps, func(r *rand.Rand) (int, int) {
		k := hot[r.Intn(len(hot))]
		return k.user, k.t
	})
	e.sample = sampleOps(seed, nOps, verifySample)
	e.reference = staticReference(e.ops, m)
	e.guard = func(ph *phase) error {
		var gm gatewayMetrics
		if err := scrape(base, &gm); err != nil {
			return err
		}
		g := gm.Gateway
		if g.Failovers+g.Retries+g.BackendErrors != 0 {
			return fmt.Errorf("cluster-hot: %d failovers, %d retries, %d backend errors; the workload expects none",
				g.Failovers, g.Retries, g.BackendErrors)
		}
		var hits int
		for _, r := range ph.results {
			if r.hit {
				hits++
			}
		}
		ph.notes["cache_hit_ratio"] = float64(hits) / float64(len(ph.results))
		return nil
	}
	return e, nil
}

// lbsnDataset generates the gowalla-preset dataset of a seed, resized when
// the scale says so.
func lbsnDataset(seed int64, sc scale) (*lbsn.Dataset, error) {
	cfg, err := lbsn.NewPreset(lbsn.PresetGowalla, seed)
	if err != nil {
		return nil, err
	}
	if sc.lbsnUsers > 0 {
		cfg.Users, cfg.POIs = sc.lbsnUsers, sc.lbsnPOIs
	}
	return lbsn.Generate(cfg)
}

// fitConfig is the paper's default configuration, serial so the numbers
// measure the loss kernels and the train engine rather than the scheduler.
func fitConfig(seed int64, epochs int) tcss.Config {
	cfg := tcss.DefaultConfig()
	cfg.Epochs, cfg.Workers, cfg.Seed = epochs, 1, seed
	return cfg
}

// writeFitEpochs is the length of node-write's fit. The write path's cost
// does not depend on how converged the model is, and a short fit lets the
// run set up three times.
const writeFitEpochs = 10

// readEvery makes every third op of node-write a read and the rest observes.
// Writes are the majority so that op_p50_ms and op_p95_ms both sit inside the
// write population (its 25th and 92nd percentile): a 0.07 ms loopback read is
// too small an op for this sandbox to time within a quarter (README, noise
// rule 3), so the reads' cost shows in ops_per_s and in the per-layer
// serve.read_* metrics instead.
const readEvery = 3

func isRead(i int) bool { return i%readEvery == 0 }

// setupNodeWrite: one writable node over a fitted recommender; observes with
// a read after every second one, one connection so that the generation
// sequence, and with it every reply byte, is a function of the seed.
func setupNodeWrite(w *workload, seed int64, nOps int, sc scale, _ string, rec *recorder) (env, error) {
	ds, err := lbsnDataset(seed, sc)
	if err != nil {
		return nil, err
	}
	fitted, err := tcss.Fit(ds, tcss.Month, fitConfig(seed, writeFitEpochs))
	if err != nil {
		return nil, err
	}
	return newWriteEnv(w, seed, fitted, nOps, sc, rec)
}

// newWriteEnv puts a fitted recommender behind a writable node, warms it up
// and plans nOps ops: observes of 8 in-range check-ins, every third op a read.
func newWriteEnv(w *workload, seed int64, fitted *tcss.Recommender, nOps int, sc scale, rec *recorder) (*servingEnv, error) {
	e := &servingEnv{w: w, seed: seed}
	var err error
	users, pois := fitted.Model.I, fitted.Model.J

	r := rng(seed, streamOps)
	e.ops = make([]op, nOps)
	e.sample = make(map[int]bool)
	readAt := make(map[uint64]int) // generation -> the read it serves
	var observes uint64
	for i := range e.ops {
		o := &e.ops[i]
		if isRead(i) {
			o.user, o.t = r.Intn(users), r.Intn(lbsn.Month.Len())
			e.sample[i], readAt[observes] = true, i
			continue
		}
		type checkIn struct {
			User  int `json:"user"`
			POI   int `json:"poi"`
			Month int `json:"month"`
			Week  int `json:"week"`
			Hour  int `json:"hour"`
		}
		var batch struct {
			CheckIns [8]checkIn `json:"checkins"`
		}
		for c := range batch.CheckIns {
			month := r.Intn(lbsn.Month.Len())
			ci := lbsn.CheckIn{User: r.Intn(users), POI: r.Intn(pois), Month: month, Week: month * 4, Hour: r.Intn(lbsn.Hour.Len())}
			batch.CheckIns[c] = checkIn{ci.User, ci.POI, ci.Month, ci.Week, ci.Hour}
			o.checkIns = append(o.checkIns, ci)
		}
		o.observe = true
		observes++
		if o.body, err = json.Marshal(&batch); err != nil {
			return nil, err
		}
	}

	// Every generation is gone by the time the run is verified, so the
	// reference answer of the read a generation will serve is computed when
	// the generation is published (≈ 10 µs on the writer goroutine).
	var mu sync.Mutex
	expect := make(map[int][]scored, len(readAt))
	opts := serve.DefaultOptions()
	opts.OnSwap = func(s *serve.Snapshot) {
		if i, ok := readAt[s.Gen]; ok {
			o := e.ops[i]
			want := refTopN(s.Model, o.user, o.t, 10, s.Side.OwnPOIs[o.user])
			mu.Lock()
			expect[i] = want
			mu.Unlock()
		}
	}
	e.reference = func(i int) ([]scored, func(int) float64) {
		mu.Lock()
		defer mu.Unlock()
		return expect[i], nil
	}

	srv, err := serve.New(fitted, opts)
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, srv.Close)
	base, err := e.expose(rec.wrap(spanHandler, spanClient, srv.Handler()))
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = base
	key := func(r *rand.Rand) (int, int) { return r.Intn(users), r.Intn(lbsn.Month.Len()) }
	if err := warmUp(base, readOps(rng(seed, streamWarm), sc.n(300, 4), key)); err != nil {
		e.close()
		return nil, err
	}
	e.guard = func(ph *phase) error {
		ph.notes["generations"] = float64(srv.Generation())
		if got := srv.Generation(); got != observes {
			return fmt.Errorf("node-write: node is at generation %d after %d planned observes", got, observes)
		}
		return nil
	}
	return e, nil
}

// burnInEpochs are the epochs of train-fit that count as set-up: the first
// epochs build the Hausdorff caches and run slower than the steady state.
const burnInEpochs = 5

// trainEnv is train-fit after set-up: a tcss.Fit parked in its EpochCallback
// at the end of the burn-in epochs.
type trainEnv struct {
	w       *workload
	seed    int64
	ops     int
	resume  chan trainGo // releases the parked fit
	done    chan error   // the fit's result
	start   time.Time    // when the fit was released
	samples []sample     // one per measured epoch
	losses  []float64    // after the last burn-in epoch and after every measured one
	fitted  *tcss.Recommender
}

// trainGo is what measure hands the parked fit.
type trainGo struct {
	rec *recorder
	can *canary
}

func setupTrainFit(w *workload, seed int64, nOps int, sc scale, _ string, _ *recorder) (env, error) {
	e := &trainEnv{w: w, seed: seed, ops: nOps, resume: make(chan trainGo), done: make(chan error, 1)}
	ds, err := lbsnDataset(seed, sc)
	if err != nil {
		return nil, err
	}
	parked := make(chan struct{})
	cfg := fitConfig(seed, burnInEpochs+nOps)
	var (
		run        trainGo
		measuring  bool
		opStart    time.Time // when the epoch now running began
		lastCanary time.Time
		paused     int64 // canary time before the release
	)
	// Epochs are timed from the return of one callback to the entry of the
	// next, so what the callback does (canary, spans) is not epoch time.
	cfg.EpochCallback = func(epoch int, _ *core.Model, loss float64) {
		entry := time.Now()
		if epoch+1 < burnInEpochs {
			return
		}
		e.losses = append(e.losses, loss)
		if measuring {
			clock := entry.Sub(e.start)
			if run.can != nil {
				clock -= time.Duration(run.can.paused.Load() - paused)
			}
			if run.rec != nil && run.rec.on.Load() {
				run.rec.add(int64(len(e.samples)), spanEpoch, spanFit, opStart, entry)
			}
			e.samples = append(e.samples, sample{end: clock, lat: entry.Sub(opStart), ok: true})
		} else if nOps > 0 {
			close(parked)
			run = <-e.resume
			measuring, e.start = true, time.Now()
			if run.can != nil {
				paused = run.can.paused.Load()
			}
		}
		if !measuring {
			return
		}
		if run.can != nil && time.Since(lastCanary) >= canaryEvery {
			run.can.run()
			lastCanary = time.Now()
		}
		if run.rec != nil {
			run.rec.on.Store(run.rec.traced(len(e.samples)))
		}
		opStart = time.Now()
	}
	go func() {
		fitted, err := tcss.Fit(ds, tcss.Month, cfg)
		e.fitted = fitted
		e.done <- err
	}()
	if nOps == 0 { // a set-up repetition that will not be measured
		return e, <-e.done
	}
	select {
	case <-parked:
		return e, nil
	case err := <-e.done:
		return nil, fmt.Errorf("train-fit: fit ended during burn-in: %v", err)
	}
}

// close has nothing to stop: measure has already waited for the fit.
func (e *trainEnv) close() {}

func (e *trainEnv) measure(rec *recorder, can *canary) (*phase, error) {
	e.resume <- trainGo{rec, can}
	if err := <-e.done; err != nil {
		return nil, err
	}
	ph := &phase{samples: e.samples, wall: e.samples[len(e.samples)-1].end, notes: map[string]float64{}}
	if rec != nil {
		rec.on.Store(false)
		rec.add(-1, spanFit, "", e.start, time.Now())
	}
	return ph, nil
}

func (e *trainEnv) verify(ph *phase, bad []bool) (*golden, error) {
	final, burnIn := e.losses[len(e.losses)-1], e.losses[0]
	if math.IsNaN(final) || math.IsInf(final, 0) || final >= burnIn {
		for i := range bad {
			bad[i] = true
		}
		return nil, fmt.Errorf("train-fit: final loss %v is not below the burn-in loss %v", final, burnIn)
	}
	res := e.fitted.Evaluate()
	ph.notes["final_loss"], ph.notes["hit_at_10"], ph.notes["mrr"] = final, res.HitAtK, res.MRR
	return &golden{Workload: e.w.name, Seed: e.seed, Ops: e.ops, FinalLoss: final, HitAt10: res.HitAtK, MRR: res.MRR}, nil
}
