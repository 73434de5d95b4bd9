package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestReplayCompareRandomPinned pins the warm-vs-random growth-init ablation
// byte for byte: the -out document of
// `tcss replay -preset gmu-5k -weeks 3 -epochs 5 -half-life 2 -compare-random`
// runs both init policies through the open-world observe path with decay, so
// a refactor of that path or of how the random policy reaches it must leave
// the digest untouched.
func TestReplayCompareRandomPinned(t *testing.T) {
	// One worker, so the digest does not depend on the machine's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const want = "e37d509ad804e4cb515cea8a924d15edb9b988ddb12bff65460878b0b1ecb961"

	out := filepath.Join(t.TempDir(), "replay.json")
	err := runReplay(replayOpts{
		preset: "gmu-5k", gran: "month", seed: 7,
		weeks: 3, startWeek: 14, newUsers: 3, newPOIs: 2, closeProb: 0.01,
		epochs: 5, halfLife: 2,
		topK: 10, coldWeeks: 2,
		compareRandom: true, out: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(doc)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("replay document digest %s, want %s", got, want)
	}
}
