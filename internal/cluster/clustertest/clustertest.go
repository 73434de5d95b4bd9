// Package clustertest is a deterministic in-process harness for the sharded
// serving tier: N shards × R replicas plus a gateway, all on httptest
// servers inside one process. There are no real processes, no background
// polling, and no sleeps — replication advances only when the test calls
// Sync, failures happen only when the test injects them — so every test is
// reproducible and race-clean by construction.
package clustertest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tcss"
	"tcss/internal/baselines"
	"tcss/internal/cluster"
	"tcss/internal/fault"
	"tcss/internal/lbsn"
	"tcss/internal/registry"
	"tcss/internal/serve"
)

// note: replicas share one immutable fitted model (Observe is copy-on-write
// on Model/Side, and replicas never observe), while each primary gets its own
// independent fit because Observe mutates the Recommender's dataset.

// Config sizes a test cluster. Zero values get small defaults.
type Config struct {
	Shards   int // default 4
	Replicas int // replicas per shard, default 1
	Vnodes   int // ring virtual nodes, default 128 (small: test rings are rebuilt often)
	Users    int // dataset users, default 40
	POIs     int // dataset POIs, default 36
	Seed     int64
	Serve    serve.Options // base options applied to every node

	// Gateway carries gateway tuning (hedging, retry budget, deadline
	// budgets, cooldowns) through to cluster.NewGateway; Vnodes and Client
	// are overridden by the harness (Client is always the chaos transport).
	Gateway cluster.GatewayOptions

	// SeqModel, when non-empty, registers this sequential baseline (STRNN,
	// STGN or STAN) on every node so the cluster serves POST /v1/next.
	// Training is seeded, so every node's copy is bit-identical and failover
	// answers match the primary exactly.
	SeqModel string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas < 0 {
		c.Replicas = 1
	}
	if c.Vnodes <= 0 {
		c.Vnodes = 128
	}
	if c.Users <= 0 {
		c.Users = 40
	}
	if c.POIs <= 0 {
		c.POIs = 36
	}
	if c.Seed == 0 {
		c.Seed = 21
	}
	return c
}

// Node is one serving process stand-in: a serve.Server behind an httptest
// listener with injectable fault middleware.
type Node struct {
	Name   string // "shard-0", "shard-0-replica-1", ...
	Shard  string
	Role   string
	Server *serve.Server
	URL    string
	Faults *fault.Hooks // the node's write-path fault seam
	Repl   *cluster.Replicator
	// Net is the replicator's network fault seam (replicas only): faults
	// armed here sit on this replica's path to its primary — a one-way
	// partition the gateway and other replicas never see.
	Net *fault.Transport

	http        *httptest.Server
	dead        atomic.Bool
	corruptNext atomic.Bool
}

// Kill makes the node drop every connection mid-request, as a crashed
// process would. Clients observe transport errors, not HTTP statuses.
func (n *Node) Kill() { n.dead.Store(true) }

// Revive undoes Kill.
func (n *Node) Revive() { n.dead.Store(false) }

// CorruptNextShipment arms a one-shot byte flip in the next snapshot
// shipment this node serves; the replica's CRC frame must reject it.
func (n *Node) CorruptNextShipment() { n.corruptNext.Store(true) }

// middleware wires the kill switch and shipment corruption around the
// server's handler.
func (n *Node) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.dead.Load() {
			// Abort the connection without a response: the closest in-process
			// analogue to a killed process.
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path == "/v1/snapshot/bin" && n.corruptNext.CompareAndSwap(true, false) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 {
				body[len(body)/2] ^= 0x40
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// Shard is one partition: a writable primary plus read-only replicas.
type Shard struct {
	Name     string
	Primary  *Node
	Replicas []*Node
}

// Cluster is the assembled test cluster.
type Cluster struct {
	Ring       *cluster.Ring
	Gateway    *cluster.Gateway
	GatewayURL string
	Shards     []*Shard
	Config     Config

	// Net is the gateway's network fault seam: faults armed here sit between
	// the gateway and the targeted endpoint (one-way — replicators keep their
	// own transports), so a partitioned primary is unreachable for reads yet
	// still ships snapshots to its replicas.
	Net *fault.Transport

	t    *testing.T
	gw   *httptest.Server
	base *tcss.Recommender // shared immutable model for replicas and Dist grafting
}

// New assembles a cluster per cfg. Every node fits the same deterministic
// model (same dataset, same seed), so all shards and replicas boot on an
// identical generation-0 snapshot — exactly what real deployments get from
// loading the same published snapshot file — and responses are bit-comparable
// against any single-node reference built the same way.
func New(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg = cfg.withDefaults()

	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := cluster.NewRing(names, cfg.Vnodes)
	if err != nil {
		t.Fatal(err)
	}

	c := &Cluster{Ring: ring, Config: cfg, t: t}
	c.base = c.fit(t)
	sets := make([]cluster.ShardSet, cfg.Shards)
	for i, name := range names {
		sh := &Shard{Name: name}
		sh.Primary = c.newNode(t, name, name, "primary", ring)
		set := cluster.ShardSet{Name: name, Primary: sh.Primary.URL}
		for rI := 0; rI < cfg.Replicas; rI++ {
			rep := c.newNode(t, fmt.Sprintf("%s-replica-%d", name, rI+1), name, "replica", ring)
			rep.Net = fault.NewTransport(nil, cfg.Seed+int64(i*100+rI+1))
			rep.Repl = &cluster.Replicator{
				Server:  rep.Server,
				Primary: sh.Primary.URL,
				Dist:    c.base.Side.Dist,
				Client:  &http.Client{Transport: rep.Net},
			}
			sh.Replicas = append(sh.Replicas, rep)
			set.Replicas = append(set.Replicas, rep.URL)
		}
		c.Shards = append(c.Shards, sh)
		sets[i] = set
	}

	c.Net = fault.NewTransport(nil, cfg.Seed)
	gwOpts := cfg.Gateway
	gwOpts.Vnodes = cfg.Vnodes
	gwOpts.Client = &http.Client{Transport: c.Net}
	gw, err := cluster.NewGateway(sets, gwOpts)
	if err != nil {
		t.Fatal(err)
	}
	c.Gateway = gw
	c.gw = httptest.NewServer(gw.Handler())
	c.GatewayURL = c.gw.URL
	t.Cleanup(c.gw.Close)
	return c
}

// fit trains the shared deterministic model. Each call returns an
// independent recommender (observes on one node must not alias another), but
// all of them are bit-identical because dataset and training are seeded.
func (c *Cluster) fit(t *testing.T) *tcss.Recommender {
	t.Helper()
	gen, err := lbsn.NewPreset("gmu-5k", c.Config.Seed)
	if err != nil {
		t.Fatal(err)
	}
	gen.Users, gen.POIs, gen.CheckInsPerUser = c.Config.Users, c.Config.POIs, 18
	ds, err := lbsn.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tcss.DefaultConfig()
	tcfg.Epochs = 8
	tcfg.Rank = 5
	tcfg.Seed = c.Config.Seed
	rec, err := tcss.Fit(ds, tcss.Month, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// fitSeq trains one copy of the configured sequential model on the shared
// base recommender's training tensor. Seeded training makes every copy
// bit-identical.
func (c *Cluster) fitSeq(t *testing.T) baselines.SeqServer {
	t.Helper()
	m, ok := baselines.SeqLookup(c.Config.SeqModel)
	if !ok {
		t.Fatalf("unknown sequential model %q", c.Config.SeqModel)
	}
	ctx := &baselines.Context{
		Train:  c.base.Train,
		Social: c.base.Dataset.Social,
		Dist:   c.base.Side.Dist,
		Rank:   4,
		Epochs: 2,
		Seed:   c.Config.Seed,
	}
	if err := m.(baselines.Recommender).Fit(ctx); err != nil {
		t.Fatalf("fitting %s: %v", c.Config.SeqModel, err)
	}
	return m
}

func (c *Cluster) newNode(t *testing.T, name, shard, role string, ring *cluster.Ring) *Node {
	t.Helper()
	n := &Node{Name: name, Shard: shard, Role: role, Faults: fault.NewHooks()}

	opts := c.Config.Serve
	opts.ShardName = shard
	opts.Role = role
	opts.Owns = ring.Owns(shard)
	opts.Faults = n.Faults
	if opts.Online.Epochs == 0 {
		opts.Online = tcss.DefaultOnlineConfig()
		opts.Online.Epochs = 3
	}
	if c.Config.SeqModel != "" {
		// Registries are single-server (the server registers itself as
		// primary), so each node gets its own holding a freshly trained —
		// and, by seeding, bit-identical — sequential model.
		reg := registry.New()
		if err := reg.Register(registry.NewSeqScorer(c.fitSeq(t), 1)); err != nil {
			t.Fatal(err)
		}
		opts.Registry = reg
	}

	var srv *serve.Server
	var err error
	if role == "primary" {
		srv, err = serve.New(c.fit(t), opts)
	} else {
		srv, err = serve.NewFromSource(
			&serve.StaticSource{Model: c.base.Model, Side: c.base.Side, Gran: c.base.Gran}, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	n.Server = srv
	n.http = httptest.NewServer(n.middleware(srv.Handler()))
	n.URL = n.http.URL
	t.Cleanup(func() { n.http.Close(); srv.Close() })
	return n
}

// Sync runs one replication cycle on every replica and fails the test on
// unexpected errors. Injected failures (killed primaries, corrupted
// shipments) are expected: Sync returns the per-replica errors instead of
// failing, so tests assert on them.
func (c *Cluster) Sync() map[string]error {
	c.t.Helper()
	errs := make(map[string]error)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, sh := range c.Shards {
		for _, rep := range sh.Replicas {
			if _, _, err := rep.Repl.SyncOnce(ctx); err != nil {
				errs[rep.Name] = err
			}
		}
	}
	return errs
}

// MustSync is Sync but fails the test on any replica error.
func (c *Cluster) MustSync() {
	c.t.Helper()
	for name, err := range c.Sync() {
		c.t.Fatalf("replica %s sync: %v", name, err)
	}
}

// Reference builds a standalone single-node server over the identical
// fitted model, for bit-identity comparisons against cluster responses.
func (c *Cluster) Reference(t *testing.T) (*serve.Server, string) {
	t.Helper()
	opts := c.Config.Serve
	if opts.Online.Epochs == 0 {
		opts.Online = tcss.DefaultOnlineConfig()
		opts.Online.Epochs = 3
	}
	if c.Config.SeqModel != "" {
		reg := registry.New()
		if err := reg.Register(registry.NewSeqScorer(c.fitSeq(t), 1)); err != nil {
			t.Fatal(err)
		}
		opts.Registry = reg
	}
	srv, err := serve.New(c.fit(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs.URL
}
