package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"tcss/internal/cluster"
)

// TestValidate is the tcssgw boot table: argv → the error validate must
// return before anything is spawned, or "" for a vector that must pass.
func TestValidate(t *testing.T) {
	for _, tc := range []struct{ argv, want string }{
		// scripts/smoke.sh, cluster scenario.
		{"-listen 127.0.0.1:18090 -spawn 4 -replicas 2 -port-base 19100 -tcss bin/tcss -pid-dir pids " +
			"-seed 7 -synth-users 1000000 -synth-pois 1000 -synth-times 12 -synth-rank 8", ""},
		// scripts/smoke.sh, chaos scenario.
		{"-listen 127.0.0.1:18096 " +
			"-shards shard-0=http://127.0.0.1:19301,http://127.0.0.1:19212;shard-1=http://127.0.0.1:19211,http://127.0.0.1:19213 " +
			"-read-budget 2s -per-try-timeout 500ms -retry-rate 50 -retry-burst 100", ""},
		{"-spawn 4 -replicas 2 -synth-users 1000000", ""},
		{"-spawn 1 -replicas 0", ""},
		{"-spawn 2 -hedge", ""},
		{"-shards a=http://h0,http://h0r;b=http://h1,http://h1r -hedge -hedge-delay 10ms", ""},
		{"-shards a=http://h0 -hedge-delay 10ms", ""}, // a dependent flag merely unused

		{"", "one of -shards or -spawn is required"},
		{"-spawn 2 -shards a=http://h0", "not both"},
		{"-spawn 2 -replicas -1", "-replicas -1 is negative"},
		{"-shards a", "want name=primaryURL"},
		{"-spawn 2 -replicas 0 -hedge", "-hedge needs a second endpoint"},
		{"-shards a=http://h0,http://h0r;b=http://h1 -hedge", `"b" has no replica`},
	} {
		var c gwConfig
		c.flags().Parse(strings.Fields(tc.argv))
		err := c.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("tcssgw %s: unexpected error %v", tc.argv, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("tcssgw %s: error %v, want one containing %q", tc.argv, err, tc.want)
		}
	}
}

// The vectors -spawn hands to `tcss serve`; the same two strings are OK rows
// of cmd/tcss's TestServeValidate, so a spawned node can never be refused by
// its own flag validation.
func TestNodeArgs(t *testing.T) {
	var c gwConfig
	c.flags().Parse(nil)
	const common = "serve -addr 127.0.0.1:9100 -shard-name shard-0 -cluster-shards shard-0,shard-1 -vnodes 0 -seed 7 " +
		"-synth-users 100000 -synth-pois 1000 -synth-times 12 -synth-rank 8 "
	primary := c.nodeArgs("shard-0", "shard-0,shard-1", 9100, "-first-gen", "1")
	if got := strings.Join(primary, " "); got != common+"-first-gen 1" {
		t.Errorf("primary args:\n got %s\nwant %s", got, common+"-first-gen 1")
	}
	replica := c.nodeArgs("shard-0", "shard-0,shard-1", 9100, "-replica-of", "http://127.0.0.1:9100", "-sync-wait", c.spawnWait.String())
	if got, want := strings.Join(replica, " "), common+"-replica-of http://127.0.0.1:9100 -sync-wait 1m0s"; got != want {
		t.Errorf("replica args:\n got %s\nwant %s", got, want)
	}
}

func TestParseTopology(t *testing.T) {
	got, err := parseTopology(" a = http://h0:1/ , http://h0r:2 ;; b=http://h1:3// ; ")
	want := []cluster.ShardSet{
		{Name: "a", Primary: "http://h0:1", Replicas: []string{"http://h0r:2"}},
		{Name: "b", Primary: "http://h1:3"},
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTopology = %+v, %v; want %+v", got, err, want)
	}
	for spec, wantErr := range map[string]string{
		"":                  "no shards",
		" ; ":               "no shards",
		"a":                 "want name=primaryURL",
		"a=":                "empty endpoint URL",
		"a=http://h0,,":     "empty endpoint URL",
		"a=http://h0;b= / ": "empty endpoint URL",
	} {
		if _, err := parseTopology(spec); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("parseTopology(%q) error %v, want one containing %q", spec, err, wantErr)
		}
	}
}

func TestShardIndexOf(t *testing.T) {
	for name, want := range map[string]int{
		"shard-0": 0, "shard-2": 2, "shard-2-replica-1": 2, "shard-12-replica-3": 12,
	} {
		if got := shardIndexOf(name); got != want {
			t.Errorf("shardIndexOf(%q) = %d, want %d", name, got, want)
		}
	}
}

// A gateway that fails after spawning must not leave its children behind:
// at the parent os.Exit skipped the deferred killAll and the `tcss serve`
// processes were re-parented to init. The "node" here is a script that never
// answers /healthz, so run fails on the spawn-wait budget.
func TestRunKillsChildrenOnError(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "tcss")
	if err := os.WriteFile(fake, []byte("#!/bin/sh\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	var c gwConfig
	c.flags().Parse([]string{"-tcss", fake, "-spawn", "1", "-replicas", "0",
		"-spawn-wait", "300ms", "-pid-dir", dir, "-port-base", "19990", "-listen", "127.0.0.1:0"})
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	err := c.run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("run error %v, want the not-healthy error", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "shard-0.pid"))
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Fatalf("child %d still exists after run returned (kill -0: %v)", pid, err)
	}
}
