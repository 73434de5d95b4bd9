// Command tcssgw fronts a sharded tcss serving cluster: it routes
// /v1/recommend and /v1/explain to the shard owning the user (with replica
// failover), splits /v1/observe batches by ownership, and merges /metrics
// and /healthz across every endpoint.
//
// Two ways to describe the cluster:
//
//	tcssgw -shards 'shard-0=http://h0:8080,http://h0r:8081;shard-1=http://h1:8080'
//
// fronts an already-running cluster, while
//
//	tcssgw -spawn 4 -replicas 2 -synth-users 1000000
//
// launches a local 4-shard × 2-replica cluster of `tcss serve` children on
// sequential ports (synthetic deterministic model, primaries at generation 1,
// replicas catching up over snapshot shipping) and then fronts it. Spawn mode
// is what `make cluster-smoke` uses; pid files in -pid-dir let the smoke
// harness kill -9 a primary mid-load.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcss/internal/cluster"
)

func main() {
	var c gwConfig
	c.flags().Parse(os.Args[1:])
	err := c.validate()
	if err == nil {
		err = c.run(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcssgw:", err)
		os.Exit(1)
	}
}

// gwConfig is every tcssgw flag, plus the -shards topology validate parses.
type gwConfig struct {
	listen, shards, tcssBin, pidDir                  string
	vnodes, spawn, replicas, portBase                int
	synthUsers, synthPOIs, synthTimes, synthRank     int
	readBudget, perTryTimeout, hedgeDelay, spawnWait time.Duration
	retryRate, retryBurst                            float64
	hedge                                            bool
	seed                                             int64

	sets []cluster.ShardSet // set by validate; empty in spawn mode
}

func (c *gwConfig) flags() *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&c.listen, "listen", ":8090", "gateway listen address")
	fs.StringVar(&c.shards, "shards", "", "cluster topology: name=primaryURL[,replicaURL...] joined by ';'")
	fs.IntVar(&c.vnodes, "vnodes", 0, "ring virtual nodes per shard (0 = default; must match the shards')")

	fs.DurationVar(&c.readBudget, "read-budget", 0, "total deadline budget per read across all failover attempts (0 = 2s default; clients lower it per-request with X-Deadline-Budget)")
	fs.DurationVar(&c.perTryTimeout, "per-try-timeout", 0, "cap on a single backend attempt (0 = 1s default, always clamped to the remaining budget)")
	fs.Float64Var(&c.retryRate, "retry-rate", 0, "retry-budget refill rate in tokens/s charged per failover or hedge attempt (0 = 10/s default)")
	fs.Float64Var(&c.retryBurst, "retry-burst", 0, "retry-budget bucket size (0 = 20 default)")
	fs.BoolVar(&c.hedge, "hedge", false, "hedge GET /v1/recommend: race a second candidate if the first is slow")
	fs.DurationVar(&c.hedgeDelay, "hedge-delay", 0, "how long to wait before firing the hedge attempt (0 = 30ms default)")

	fs.IntVar(&c.spawn, "spawn", 0, "spawn a local cluster with this many shards instead of using -shards")
	fs.IntVar(&c.replicas, "replicas", 1, "replicas per spawned shard")
	fs.IntVar(&c.portBase, "port-base", 9100, "first port for spawned nodes (sequential from here)")
	fs.StringVar(&c.tcssBin, "tcss", "tcss", "path to the tcss binary for spawned nodes")
	fs.StringVar(&c.pidDir, "pid-dir", "", "write <node>.pid files for spawned nodes here")
	fs.DurationVar(&c.spawnWait, "spawn-wait", 60*time.Second, "budget for every spawned node to answer /healthz")
	fs.Int64Var(&c.seed, "seed", 7, "synthetic model seed for spawned nodes")
	fs.IntVar(&c.synthUsers, "synth-users", 100_000, "synthetic model user count for spawned nodes")
	fs.IntVar(&c.synthPOIs, "synth-pois", 1000, "synthetic model POI count for spawned nodes")
	fs.IntVar(&c.synthTimes, "synth-times", 12, "synthetic model time units for spawned nodes")
	fs.IntVar(&c.synthRank, "synth-rank", 8, "synthetic model embedding rank for spawned nodes")
	return fs
}

// validate rejects what the flags alone show to be wrong, before any child
// is spawned, and parses the -shards topology.
func (c *gwConfig) validate() error {
	switch {
	case c.spawn > 0 && c.shards != "":
		return errors.New("use either -spawn or -shards, not both")
	case c.spawn <= 0 && c.shards == "":
		return errors.New("one of -shards or -spawn is required")
	case c.replicas < 0:
		return fmt.Errorf("-replicas %d is negative", c.replicas)
	}
	if c.shards != "" {
		var err error
		if c.sets, err = parseTopology(c.shards); err != nil {
			return err
		}
	}
	if c.hedge {
		// A hedge races a second candidate; a shard with one endpoint has
		// none, so the flag would silently do nothing there.
		if c.spawn > 0 && c.replicas == 0 {
			return errors.New("-hedge needs a second endpoint per shard: -replicas is 0")
		}
		for _, set := range c.sets {
			if len(set.Replicas) == 0 {
				return fmt.Errorf("-hedge needs a second endpoint per shard: %q has no replica", set.Name)
			}
		}
	}
	return nil
}

// run fronts the cluster until SIGINT/SIGTERM: topology (spawned or parsed)
// → gateway → listen → drain. Spawned children are killed on every return.
func (c *gwConfig) run(ctx context.Context) error {
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	sets := c.sets
	if c.spawn > 0 {
		spawned, kids, err := spawnCluster(ctx, c)
		defer kids.killAll()
		if err != nil {
			return err
		}
		sets = spawned
	}

	gw, err := cluster.NewGateway(sets, cluster.GatewayOptions{
		Vnodes:        c.vnodes,
		ReadBudget:    c.readBudget,
		PerTryTimeout: c.perTryTimeout,
		RetryRate:     c.retryRate,
		RetryBurst:    c.retryBurst,
		Hedge:         c.hedge,
		HedgeDelay:    c.hedgeDelay,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: c.listen, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	fmt.Printf("gateway on %s fronting %d shards (/v1/recommend /v1/explain /v1/observe /metrics /healthz)\n",
		c.listen, len(sets))
	for _, set := range sets {
		fmt.Printf("  %s: primary %s, %d replicas\n", set.Name, set.Primary, len(set.Replicas))
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tcssgw: http drain:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// parseTopology parses "name=primaryURL[,replicaURL...];name=..." into shard
// sets. Whitespace around separators is tolerated.
func parseTopology(spec string) ([]cluster.ShardSet, error) {
	var sets []cluster.ShardSet
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, urls, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("shard entry %q: want name=primaryURL[,replicaURL...]", entry)
		}
		set := cluster.ShardSet{Name: strings.TrimSpace(name)}
		for i, u := range strings.Split(urls, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				return nil, fmt.Errorf("shard %q: empty endpoint URL", set.Name)
			}
			if i == 0 {
				set.Primary = u
			} else {
				set.Replicas = append(set.Replicas, u)
			}
		}
		sets = append(sets, set)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("no shards in topology %q", spec)
	}
	return sets, nil
}

// children tracks spawned tcss serve processes for shutdown. Children that
// die on their own (including the smoke harness's injected kill -9) are
// reaped and logged but never bring the gateway down — that is the point of
// replica failover.
type children struct {
	procs  []*exec.Cmd
	exited []chan struct{} // closed once the matching proc has been reaped
}

// killAll SIGTERMs every child, SIGKILLs what is left after 5 s, and returns
// once all of them have been reaped.
func (c *children) killAll() {
	for _, cmd := range c.procs {
		cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.After(5 * time.Second)
	for i, exited := range c.exited {
		select {
		case <-exited:
		case <-deadline:
			for _, cmd := range c.procs[i:] {
				cmd.Process.Kill()
			}
			<-exited
		}
	}
}

// nodeArgs is the `tcss serve` argument vector of one spawned node; extra
// makes it a primary (-first-gen) or a replica (-replica-of). The validate
// table in cmd/tcss pins that `tcss serve` accepts both shapes.
func (c *gwConfig) nodeArgs(shard, allShards string, port int, extra ...string) []string {
	return append([]string{"serve",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-shard-name", shard,
		"-cluster-shards", allShards,
		"-vnodes", strconv.Itoa(c.vnodes),
		"-seed", strconv.FormatInt(c.seed, 10),
		"-synth-users", strconv.Itoa(c.synthUsers),
		"-synth-pois", strconv.Itoa(c.synthPOIs),
		"-synth-times", strconv.Itoa(c.synthTimes),
		"-synth-rank", strconv.Itoa(c.synthRank),
	}, extra...)
}

// spawnCluster launches shards×(1+replicas) `tcss serve` children on
// sequential loopback ports. Primaries come up first at generation 1;
// replicas then bootstrap at generation 0 and catch up through a real
// snapshot shipment before answering /healthz, so the replication path is
// exercised even before any load arrives. The returned children are never
// nil and hold everything started so far, also on error.
func spawnCluster(ctx context.Context, c *gwConfig) ([]cluster.ShardSet, *children, error) {
	kids := &children{}
	names := make([]string, c.spawn)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	allShards := strings.Join(names, ",")

	start := func(name string, port int, extra ...string) error {
		cmd := exec.Command(c.tcssBin, c.nodeArgs(names[shardIndexOf(name)], allShards, port, extra...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting %s: %w", name, err)
		}
		exited := make(chan struct{})
		kids.procs = append(kids.procs, cmd)
		kids.exited = append(kids.exited, exited)
		go func() {
			err := cmd.Wait()
			close(exited)
			if err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "tcssgw: node %s exited: %v\n", name, err)
			}
		}()
		if c.pidDir != "" {
			pidFile := filepath.Join(c.pidDir, name+".pid")
			if err := os.WriteFile(pidFile, []byte(strconv.Itoa(cmd.Process.Pid)+"\n"), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", pidFile, err)
			}
		}
		return nil
	}

	if c.pidDir != "" {
		if err := os.MkdirAll(c.pidDir, 0o755); err != nil {
			return nil, kids, err
		}
	}

	// Primaries first: replicas need them answering /v1/snapshot/bin.
	sets := make([]cluster.ShardSet, c.spawn)
	perShard := 1 + c.replicas
	for i, name := range names {
		port := c.portBase + i*perShard
		sets[i] = cluster.ShardSet{Name: name, Primary: fmt.Sprintf("http://127.0.0.1:%d", port)}
		if err := start(name, port, "-first-gen", "1"); err != nil {
			return nil, kids, err
		}
	}
	for i := range names {
		if err := waitHealthy(ctx, sets[i].Primary, c.spawnWait); err != nil {
			return nil, kids, fmt.Errorf("primary %s: %w", names[i], err)
		}
	}
	fmt.Printf("spawned %d primaries at generation 1\n", c.spawn)

	for i, name := range names {
		for r := 1; r <= c.replicas; r++ {
			port := c.portBase + i*perShard + r
			url := fmt.Sprintf("http://127.0.0.1:%d", port)
			sets[i].Replicas = append(sets[i].Replicas, url)
			err := start(fmt.Sprintf("%s-replica-%d", name, r), port,
				"-replica-of", sets[i].Primary, "-sync-wait", c.spawnWait.String())
			if err != nil {
				return nil, kids, err
			}
		}
	}
	for i := range names {
		for _, url := range sets[i].Replicas {
			if err := waitHealthy(ctx, url, c.spawnWait); err != nil {
				return nil, kids, fmt.Errorf("replica of %s at %s: %w", names[i], url, err)
			}
		}
	}
	if c.replicas > 0 {
		fmt.Printf("spawned %d replicas, all synced over snapshot shipping\n", c.spawn*c.replicas)
	}
	return sets, kids, nil
}

// shardIndexOf extracts the shard index from a spawned node name
// ("shard-2" or "shard-2-replica-1" -> 2).
func shardIndexOf(name string) int {
	rest := strings.TrimPrefix(name, "shard-")
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		rest = rest[:i]
	}
	n, _ := strconv.Atoi(rest)
	return n
}

// waitHealthy polls a node's /healthz until it answers 200 or the budget
// runs out. Replicas only start listening after their initial sync, so a
// healthy replica is already on the primary's generation.
func waitHealthy(ctx context.Context, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			if err == nil {
				return fmt.Errorf("not healthy after %s", budget)
			}
			return fmt.Errorf("not healthy after %s: %w", budget, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
