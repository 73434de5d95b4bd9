package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden ring fixture")

// TestRingBalance checks the load-spread contract: with the default vnode
// count, every shard's share of a large user population stays within ±10% of
// uniform from 4 up to 64 shards.
func TestRingBalance(t *testing.T) {
	const users = 200_000
	for _, shards := range []int{4, 8, 16, 32, 64} {
		names := make([]string, shards)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		ring, err := NewRing(names, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, shards)
		for u := 0; u < users; u++ {
			counts[ring.OwnerIndex(u)]++
		}
		want := float64(users) / float64(shards)
		for i, got := range counts {
			dev := (float64(got) - want) / want
			if dev < -0.10 || dev > 0.10 {
				t.Errorf("%d shards: shard %d owns %d users, %.1f%% from uniform %g",
					shards, i, got, 100*dev, want)
			}
		}
	}
}

// TestRingRemapping checks the consistency contract: growing an N-shard ring
// by one remaps roughly 1/(N+1) of users — never the near-total reshuffle
// `user % N` would cause — and every remapped user lands on the new shard.
func TestRingRemapping(t *testing.T) {
	const users = 100_000
	for _, shards := range []int{4, 8, 16} {
		names := make([]string, shards+1)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		before, err := NewRing(names[:shards], 0)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(names, 0)
		if err != nil {
			t.Fatal(err)
		}
		newShard := fmt.Sprintf("shard-%d", shards)
		moved := 0
		for u := 0; u < users; u++ {
			a, b := before.Owner(u), after.Owner(u)
			if a == b {
				continue
			}
			moved++
			if b != newShard {
				t.Fatalf("%d shards: user %d moved %s -> %s, not to the new shard", shards, u, a, b)
			}
		}
		ideal := float64(users) / float64(shards+1)
		if f := float64(moved); f > 1.35*ideal {
			t.Errorf("%d->%d shards: %d users moved, ideal %.0f (+35%% slack exceeded)",
				shards, shards+1, moved, ideal)
		}
		if moved == 0 {
			t.Errorf("%d->%d shards: nothing remapped, new shard owns no one", shards, shards+1)
		}
	}
}

// TestRingOrderIndependence checks that ownership depends only on shard
// names: gateways and shards configured with the same set in different orders
// must agree, or the cluster misroutes everything.
func TestRingOrderIndependence(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	a, err := NewRing(names, 256)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]string(nil), names...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b, err := NewRing(shuffled, 256)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10_000; u++ {
		if a.Owner(u) != b.Owner(u) {
			t.Fatalf("user %d: %q with ordered config, %q with shuffled", u, a.Owner(u), b.Owner(u))
		}
	}
}

func TestRingOwnsPredicate(t *testing.T) {
	ring, err := NewRing([]string{"a", "b", "c"}, 128)
	if err != nil {
		t.Fatal(err)
	}
	owns := map[string]func(int) bool{
		"a": ring.Owns("a"), "b": ring.Owns("b"), "c": ring.Owns("c"),
	}
	for u := 0; u < 5_000; u++ {
		owner := ring.Owner(u)
		for name, pred := range owns {
			if got := pred(u); got != (name == owner) {
				t.Fatalf("user %d owned by %q, but Owns(%q) = %v", u, owner, name, got)
			}
		}
	}
	if ring.Owns("nope")(0) {
		t.Fatal("unknown shard claims ownership")
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty shard name accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
}

// goldenRing is the fixture shape: ownership of the first users under a
// fixed configuration. It pins the hash placement across refactors — if this
// test fails without a deliberate wire-format bump, deployed clusters whose
// gateways and shards run different builds would disagree on ownership.
type goldenRing struct {
	Shards []string          `json:"shards"`
	Vnodes int               `json:"vnodes"`
	Owners map[string]string `json:"owners"` // user id (decimal) -> shard name
}

func TestRingGolden(t *testing.T) {
	ring, err := NewRing([]string{"alpha", "beta", "gamma", "delta"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRing{
		Shards: ring.Shards(),
		Vnodes: ring.vnodes,
		Owners: make(map[string]string),
	}
	for u := 0; u < 64; u++ {
		got.Owners[fmt.Sprint(u)] = ring.Owner(u)
	}

	path := filepath.Join("testdata", "ring_golden.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want goldenRing
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if want.Vnodes != got.Vnodes || len(want.Owners) != len(got.Owners) {
		t.Fatalf("fixture shape changed: vnodes %d vs %d, %d vs %d owners",
			want.Vnodes, got.Vnodes, len(want.Owners), len(got.Owners))
	}
	for user, shard := range want.Owners {
		if got.Owners[user] != shard {
			t.Errorf("user %s: golden owner %q, ring says %q — hash placement changed", user, shard, got.Owners[user])
		}
	}
}
