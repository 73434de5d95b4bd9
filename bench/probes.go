package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tcss"
	"tcss/internal/cluster"
	"tcss/internal/core"
	"tcss/internal/geo"
	"tcss/internal/lbsn"
	"tcss/internal/serve"
	"tcss/internal/tensor"
)

// timeEach calls fn n times and returns the median duration of a call in ms.
func timeEach(n int, fn func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn(i)
		d[i] = ms(time.Since(t0))
	}
	return median(d)
}

// probes measures every layer in isolation with the same fixed inputs
// whichever workload the traced pass belongs to, so a layer's number means
// one thing. Layers are the repository's packages; README.md's per-layer
// table says which end-to-end metric each number should move.
func probes(seed int64, sc scale, dir string) (map[string]metric, error) {
	out := make(map[string]metric)
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	for _, probe := range []func(int64, scale, string, func(string, float64, string)) error{
		probeKernel, probePersistence, probeReadPath, probeCluster, probeTrainAndWrite,
	} {
		if err := probe(seed, sc, dir, set); err != nil {
			return nil, err
		}
	}
	out["net.node_rtt_self_ms"] = metric{out["serve.node_hit_rtt_ms"].Value - out["serve.handler_hit_ms"].Value, "ms"}
	return out, nil
}

// probeModel is the kernel probes' model: few users (the scan does not
// depend on them), pois POIs.
func probeModel(seed int64, pois int) *core.Model {
	m, _ := scanModel(seed+int64(pois), 2048, pois)
	return m
}

// probeKernel: the core scoring kernels on synthetic catalogues.
func probeKernel(seed int64, sc scale, _ string, set func(string, float64, string)) error {
	r := rng(seed, streamProbe)
	key := func(m *core.Model) (int, int) { return r.Intn(m.I), r.Intn(m.K) }
	topn := func(m *core.Model, calls int) float64 {
		scratch := core.NewRecScratch(m)
		return timeEach(sc.n(calls, 3), func(int) {
			u, t := key(m)
			m.TopNScratch(u, t, 10, nil, scratch)
		})
	}
	var big *core.Model
	for i, size := range []struct {
		name  string
		calls int
	}{{"j2k", 2000}, {"j32k", 400}, {"j128k", 200}, {"j256k", 100}} {
		m := probeModel(seed, sc.kernelJ[i])
		set("core.topn_ms."+size.name, topn(m, size.calls), "ms")
		if size.name == "j128k" {
			big = m
		}
	}
	set("core.factor_mb.f64", float64(big.FactorBytes())/1e6, "MB")
	set("core.topn_bytes_per_op.j128k", float64(big.J*big.Rank*8), "B")
	for _, mode := range []struct {
		name string
		mode core.StorageMode
	}{{"f32", core.StorageFloat32}, {"i8", core.StorageInt8}} {
		compact, err := big.ToStorage(mode.mode)
		if err != nil {
			return err
		}
		set("core.topn_ms.j128k."+mode.name, topn(compact, 150), "ms")
		set("core.factor_mb."+mode.name, float64(compact.FactorBytes())/1e6, "MB")
	}
	batch := core.NewBatchScratch(big, 8)
	reqs := make([]core.BatchReq, 8)
	set("core.topn_batch8_ms_per_req.j128k", timeEach(sc.n(25, 3), func(int) {
		for b := range reqs {
			u, t := key(big)
			reqs[b] = core.BatchReq{User: u, T: t, N: 10}
		}
		big.TopNBatch(reqs, batch)
	})/8, "ms")
	set("core.topn_map_ms.j128k", timeEach(sc.n(100, 3), func(int) {
		u, t := key(big)
		big.TopN(u, t, 10, nil)
	}), "ms")
	slab := make([]float64, big.J*big.K)
	set("core.score_slab_ms.j128k", timeEach(sc.n(20, 3), func(int) {
		big.ScoreSlab(r.Intn(big.I), slab)
	}), "ms")
	return nil
}

// probePersistence: the snapshot formats on the 32k-POI probe model.
func probePersistence(seed int64, sc scale, dir string, set func(string, float64, string)) error {
	m := probeModel(seed, sc.kernelJ[1])
	bin, js := filepath.Join(dir, "probe.bin"), filepath.Join(dir, "probe.json")
	defer os.Remove(bin)
	defer os.Remove(js)
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	set("core.save_binary_ms", timeEach(5, func(int) { keep(m.SaveFileBinary(bin, 0)) }), "ms")
	set("core.load_mmap_ms", timeEach(20, func(int) {
		_, _, mapping, e := core.LoadFileMmap(bin)
		if keep(e); e == nil {
			keep(mapping.Close())
		}
	}), "ms")
	data, e := os.ReadFile(bin)
	keep(e)
	set("core.decode_binary_ms", timeEach(10, func(int) {
		_, _, e := core.DecodeBinary(data)
		keep(e)
	}), "ms")
	set("core.save_json_ms", timeEach(3, func(int) { keep(m.SaveFileVersioned(js, 0)) }), "ms")
	set("core.load_json_ms", timeEach(3, func(int) {
		_, _, e := core.LoadFileVersioned(js)
		keep(e)
	}), "ms")
	for name, path := range map[string]string{"core.snapshot_mb.v5": bin, "core.snapshot_mb.v4": js} {
		st, e := os.Stat(path)
		if keep(e); e == nil {
			set(name, float64(st.Size())/1e6, "MB")
		}
	}
	return err
}

// memWriter is an http.ResponseWriter that keeps the reply in memory, for
// calling a handler without a socket.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// probeReadPath: one read-only node over the scan model, called directly and
// over loopback.
func probeReadPath(seed int64, sc scale, _ string, set func(string, float64, string)) error {
	m, side := scanModel(seed, sc.scanUsers, sc.scanPOIs)
	srv, err := serve.NewFromSource(&serve.StaticSource{Model: m, Side: side, Gran: lbsn.Month}, serve.DefaultOptions())
	if err != nil {
		return err
	}
	defer srv.Close()
	r := rng(seed, streamProbe+1)
	keys := readOps(r, sc.n(150, 3), func(r *rand.Rand) (int, int) { return r.Intn(m.I), r.Intn(m.K) })
	h := srv.Handler()
	var bad int
	call := func(o op) {
		req, _ := http.NewRequest(http.MethodGet, recommendURL("", o.user, o.t), nil)
		w := &memWriter{header: make(http.Header), status: http.StatusOK}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			bad++
		}
	}
	// Each miss is timed next to a bare kernel call for the same key, so the
	// pipeline's share is a difference of neighbours, not of two medians
	// taken seconds apart on a machine whose speed drifts.
	scratch := core.NewRecScratch(m)
	miss, self := make([]float64, len(keys)), make([]float64, len(keys))
	for i, o := range keys {
		t0 := time.Now()
		m.TopNScratch(o.user, o.t, 10, nil, scratch)
		t1 := time.Now()
		call(o)
		miss[i] = ms(time.Since(t1))
		self[i] = miss[i] - ms(t1.Sub(t0))
	}
	set("serve.handler_miss_ms", median(miss), "ms")
	set("serve.pipeline_self_ms", median(self), "ms")
	set("serve.handler_hit_ms", timeEach(sc.n(2000, 3), func(i int) { call(keys[i%len(keys)]) }), "ms")
	if bad > 0 {
		return fmt.Errorf("read-path probe: %d direct handler calls failed", bad)
	}

	base, stop, err := listen(h)
	if err != nil {
		return err
	}
	defer stop()
	rtt := func(ops []op) (float64, error) {
		res, _ := load{base: base, conns: 1}.drive(ops)
		lat := make([]float64, len(res))
		for i, r := range res {
			if r.status != http.StatusOK {
				return 0, fmt.Errorf("read-path probe: status %d", r.status)
			}
			lat[i] = ms(r.lat)
		}
		return median(lat), nil
	}
	hits := make([]op, sc.n(1000, 3))
	for i := range hits {
		hits[i] = keys[i%len(keys)]
	}
	hit, err := rtt(hits)
	if err != nil {
		return err
	}
	missRTT, err := rtt(readOps(r, len(keys), func(r *rand.Rand) (int, int) { return r.Intn(m.I), r.Intn(m.K) }))
	if err != nil {
		return err
	}
	set("serve.node_hit_rtt_ms", hit, "ms")
	set("serve.node_miss_rtt_ms", missRTT, "ms")
	return nil
}

// driveTraced sends ops over one connection with a span at every boundary
// and fails on any reply other than 200.
func driveTraced(e *servingEnv, rec *recorder) ([]opResult, error) {
	res, _ := load{base: e.base, conns: 1, rec: rec}.drive(e.ops)
	for i, r := range res {
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("%s probe: op %d: status %d", e.w.name, i, r.status)
		}
	}
	return res, nil
}

// probeCluster: the cluster-hot topology with one connection and spans on
// every request, which splits a request into client, gateway and node time.
func probeCluster(seed int64, sc scale, dir string, set func(string, float64, string)) error {
	rec := newRecorder(0)
	few := sc
	few.frac = sc.frac / 8 // 64 hot keys
	e, err := setupClusterHot(findWorkload("cluster-hot"), seed, sc.n(3000, 8), few, dir, rec)
	if err != nil {
		return err
	}
	defer e.close()
	env := e.(*servingEnv)
	if _, err := driveTraced(env, rec); err != nil {
		return err
	}
	st := selfTimes(rec.spans)
	set("cluster.gateway_span_ms", median(st.Dur[spanGateway]), "ms")
	set("cluster.gateway_self_ms", median(st.Self[spanGateway]), "ms")
	set("net.client_gateway_self_ms", median(st.Self[spanClient]), "ms")

	ring, err := cluster.NewRing([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		return err
	}
	const lookups = 200_000
	t0 := time.Now()
	var owners int
	for u := 0; u < lookups; u++ {
		owners += ring.OwnerIndex(u)
	}
	set("cluster.ring_owner_ns", float64(time.Since(t0))/lookups, "ns")
	if owners == 0 || owners == lookups {
		return fmt.Errorf("cluster probe: ring put every user on one shard")
	}

	var gm gatewayMetrics
	set("cluster.metrics_scrape_ms", timeEach(5, func(int) {
		if serr := scrape(env.base, &gm); err == nil {
			err = serr
		}
	}), "ms")
	set("cluster.failovers", float64(gm.Gateway.Failovers), "count")
	set("cluster.retries", float64(gm.Gateway.Retries), "count")
	set("cluster.backend_errors", float64(gm.Gateway.BackendErrors), "count")
	set("cluster.hedges", float64(gm.Gateway.Hedges), "count")
	return err
}

// probeEpochs is the length of the probes' fits.
const probeEpochs = 12

// probeTrainAndWrite: the gowalla-preset pipeline step by step (inputs, fit,
// loss heads, evaluation), then the fitted recommender behind a writable
// node for the write path.
func probeTrainAndWrite(seed int64, sc scale, _ string, set func(string, float64, string)) error {
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	// Inputs.
	set("lbsn.generate_ms", timeEach(5, func(int) { _, e := lbsnDataset(seed, sc); keep(e) }), "ms")
	ds, e := lbsnDataset(seed, sc)
	if keep(e); err != nil {
		return err
	}
	full := ds.Tensor(tcss.Month)
	split := func() (*tensor.COO, []tensor.Entry) { return full.Split(0.8, rand.New(rand.NewSource(seed))) }
	set("tensor.split_ms", timeEach(10, func(int) { split() }), "ms")
	train, _ := split() // the split tcss.Fit makes under Config.Seed = seed
	set("geo.distance_matrix_ms", timeEach(3, func(int) { geo.NewDistanceMatrix(ds.Locations()) }), "ms")
	set("core.build_sideinfo_ms", timeEach(5, func(int) { _, e := core.BuildSideInfo(ds.Social, ds.Distances(), train); keep(e) }), "ms")
	side, e := core.BuildSideInfo(ds.Social, ds.Distances(), train)
	if keep(e); err != nil {
		return err
	}
	side.Locs = ds.Locations()

	// Fits: serial, then two workers.
	cfg := fitConfig(seed, probeEpochs)
	fit := func(workers int) (m *core.Model, epoch, init, loss float64) {
		c := cfg
		c.Workers = workers
		var ends []time.Time
		c.EpochCallback = func(_ int, _ *core.Model, l float64) { ends, loss = append(ends, time.Now()), l }
		t0 := time.Now()
		m, e := core.Train(train, side, c)
		if keep(e); e != nil {
			return nil, 0, 0, 0
		}
		d := make([]float64, 0, len(ends))
		for i := 1; i < len(ends); i++ {
			d = append(d, ms(ends[i].Sub(ends[i-1])))
		}
		epoch = median(d)
		return m, epoch, ms(ends[0].Sub(t0)) - epoch, loss
	}
	m, w1, init, loss := fit(1)
	_, w2, _, _ := fit(2)
	if err != nil {
		return err
	}
	set("core.epoch_ms.w1", w1, "ms")
	set("core.epoch_ms.w2", w2, "ms")
	set("core.train_speedup_w2", w1/w2, "x")
	set("core.train_init_ms", init, "ms")
	set("core.final_loss", loss, "loss")

	// Loss heads on the fitted model.
	g := core.NewGrads(m)
	set("core.whole_data_loss_ms", timeEach(20, func(int) { g.Zero(); m.WholeDataLossWorkers(train, cfg.WPos, cfg.WNeg, g, 1) }), "ms")
	set("core.naive_loss_ms", timeEach(2, func(int) { g.Zero(); m.NaiveWholeDataLoss(train, cfg.WPos, cfg.WNeg, g) }), "ms")
	negs, e := core.SampleNegatives(train, train.NNZ(), rng(seed, streamProbe+2))
	keep(e)
	set("core.neg_sampling_loss_ms", timeEach(20, func(int) { g.Zero(); m.NegSamplingLossWorkers(train, negs, cfg.WPos, cfg.WNeg, g, 1) }), "ms")
	head := core.NewHausdorff(side.Dist, side.EntropyW, side.FriendPOIs)
	users := make([]int, m.I)
	for i := range users {
		users[i] = i
	}
	head.LossWorkers(m, users, g, 1) // builds the head's distance caches
	set("core.hausdorff_loss_ms", timeEach(5, func(int) { g.Zero(); head.LossWorkers(m, users, g, 1) }), "ms")

	fitted, e := tcss.AttachModel(m, ds, tcss.Month, cfg, 0.8)
	if keep(e); err != nil {
		return err
	}
	var res tcss.Result
	set("eval.rank_ms", timeEach(5, func(int) { res = fitted.Evaluate() }), "ms")
	set("eval.hit_at_10", res.HitAtK, "share")
	set("eval.mrr", res.MRR, "share")

	// Write path: the same ops go to the node over HTTP and, as bare
	// Recommender.Observe calls, to an identically fitted twin.
	twinDS, e := lbsnDataset(seed, sc)
	if keep(e); err != nil {
		return err
	}
	twin, e := tcss.AttachModel(m.Clone(), twinDS, tcss.Month, cfg, 0.8)
	if keep(e); err != nil {
		return err
	}
	rec := newRecorder(0)
	env, e := newWriteEnv(findWorkload("node-write"), seed, fitted, sc.n(600, 4*readEvery), sc, rec)
	if keep(e); err != nil {
		return err
	}
	defer env.close()
	results, e := driveTraced(env, rec)
	if keep(e); err != nil {
		return err
	}
	handler := make(map[int]float64) // op index -> span of the node's handler
	for _, s := range rec.spans {
		if s.Name == spanHandler {
			handler[int(s.Trace)] = float64(s.End-s.Start) / 1e6
		}
	}
	var observes, afterPublish, update, writer []float64
	online := tcss.DefaultOnlineConfig()
	for i, o := range env.ops {
		lat := ms(results[i].lat)
		if !o.observe { // every read of this mix is the first one after a publish
			afterPublish = append(afterPublish, lat)
			continue
		}
		observes = append(observes, lat)
		t0 := time.Now()
		_, e := twin.Observe(o.checkIns, online)
		keep(e)
		update = append(update, ms(time.Since(t0)))
		writer = append(writer, handler[i]-update[len(update)-1])
	}
	edge := len(observes) / 2
	if edge > 100 {
		edge = 100
	}
	sorted := sortedCopy(observes)
	set("serve.observe_ms.p50", percentile(sorted, 0.50), "ms")
	set("serve.observe_ms.p95", percentile(sorted, 0.95), "ms")
	set("serve.observe_ms.first100", median(observes[:edge]), "ms")
	set("serve.observe_ms.last100", median(observes[len(observes)-edge:]), "ms")
	set("serve.read_after_publish_ms", median(afterPublish), "ms")
	set("core.update_online_ms", median(update), "ms")
	set("serve.writer_self_ms", median(writer), "ms")

	var nm nodeMetrics
	keep(scrape(env.base, &nm))
	set("serve.cache_hit_ratio", float64(nm.Cache.Hits)/float64(nm.Cache.Hits+nm.Cache.Misses), "share")
	set("serve.cache_entries", float64(nm.Cache.Entries), "count")
	set("serve.shed_503", float64(nm.Shed), "count")
	set("serve.deadline_504", float64(nm.Deadline), "count")
	set("serve.generations", float64(nm.Snapshot.Generation), "count")

	// Between publishes a repeated read is a cache hit.
	same := make([]op, sc.n(200, 4))
	again, _ := load{base: env.base, conns: 1}.drive(same)
	var hits []float64
	for _, r := range again {
		if r.hit {
			hits = append(hits, ms(r.lat))
		}
	}
	if len(hits) == 0 {
		return fmt.Errorf("write probe: no repeated read hit the cache")
	}
	set("serve.read_hit_ms", median(hits), "ms")

	snap := &serve.Snapshot{Gen: nm.Snapshot.Generation, Model: twin.Model, Side: twin.Side}
	var shipment []byte
	set("serve.ship_encode_ms", timeEach(5, func(int) {
		var e error
		shipment, e = serve.EncodeShipment(snap)
		keep(e)
	}), "ms")
	set("serve.ship_decode_ms", timeEach(5, func(int) {
		_, _, _, e := serve.DecodeShipment(shipment, twin.Side.Dist)
		keep(e)
	}), "ms")
	set("serve.shipment_mb", float64(len(shipment))/1e6, "MB")
	return err
}
