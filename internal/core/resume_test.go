package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcss/internal/opt"
)

func TestConfigValidateTable(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Rank = 4
		cfg.Epochs = 2
		return cfg
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; empty means valid
	}{
		{"default", func(*Config) {}, ""},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }, ""},
		{"subsampling", func(c *Config) { c.UsersPerEpoch = 3 }, ""},
		{"zero rank", func(c *Config) { c.Rank = 0 }, "rank"},
		{"negative rank", func(c *Config) { c.Rank = -2 }, "rank"},
		{"negative epochs", func(c *Config) { c.Epochs = -1 }, "epochs"},
		{"zero wpos", func(c *Config) { c.WPos = 0 }, "weights"},
		{"negative wneg", func(c *Config) { c.WNeg = -0.1 }, "weights"},
		{"negative lambda", func(c *Config) { c.Lambda = -1 }, "lambda"},
		{"negsampling without rate", func(c *Config) { c.NegSampling = true; c.NegPerPos = 0 }, "NegPerPos"},
		{"negative users per epoch", func(c *Config) { c.UsersPerEpoch = -5 }, "UsersPerEpoch"},
		{"negative sigma frac", func(c *Config) { c.ZeroOutSigmaFrac = -0.01 }, "ZeroOutSigmaFrac"},
		{"negative workers", func(c *Config) { c.Workers = -3 }, "worker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestPermIntoMatchesPerm pins the reusable-buffer permutation to rand.Perm:
// identical output and identical RNG stream position afterwards, for a
// buffer reused (and therefore dirty) across calls.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 64)
	for _, n := range []int{1, 2, 7, 16, 64} {
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		for round := 0; round < 3; round++ {
			want := a.Perm(n)
			got := permInto(b, buf, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d round=%d: permInto %v, Perm %v", n, round, got, want)
				}
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: RNG streams diverged after permInto", n)
		}
	}
}

// resumeCase is one Train configuration whose checkpoint/resume must be
// bit-identical to an uninterrupted run.
func resumeCase(variant HausdorffVariant) Config {
	cfg := Config{
		Rank: 4, WPos: 0.99, WNeg: 0.01, Lambda: 5, Alpha: -1, Eps: 1e-6,
		Epochs: 6, LR: 0.1, WeightDecay: 0.01,
		Init: SpectralInit, Variant: variant,
		NegPerPos: 1, ZeroOutSigmaFrac: 0.01,
		Workers: 1, Seed: 13,
	}
	if variant == NoHausdorff || variant == ZeroOut {
		cfg.Lambda = 0
	}
	return cfg
}

func modelsEqual(t *testing.T, name string, a, b *Model) {
	t.Helper()
	check := func(part string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", name, part, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %v vs %v — resume is not bit-identical", name, part, i, x[i], y[i])
			}
		}
	}
	check("U1", a.U1.Data, b.U1.Data)
	check("U2", a.U2.Data, b.U2.Data)
	check("U3", a.U3.Data, b.U3.Data)
	check("h", a.H, b.H)
	if (a.ZeroOutFilter == nil) != (b.ZeroOutFilter == nil) {
		t.Fatalf("%s: zero-out filter presence differs", name)
	}
	for i := range a.ZeroOutFilter {
		for j := range a.ZeroOutFilter[i] {
			if a.ZeroOutFilter[i][j] != b.ZeroOutFilter[i][j] {
				t.Fatalf("%s: zero-out filter differs at (%d,%d)", name, i, j)
			}
		}
	}
}

// TestTrainResumeBitIdentical trains each variant straight through, then as
// a checkpointed run killed at epoch 3 and resumed, and demands the final
// models match bit for bit — the engine's checkpoint carries everything
// (factors, Adam moments, RNG position, epoch) the trajectory depends on.
func TestTrainResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"social", func(*Config) {}},
		{"self", func(c *Config) { c.Variant = SelfHausdorff }},
		{"no-l1", func(c *Config) { c.Variant = NoHausdorff }},
		{"zero-out", func(c *Config) { c.Variant = ZeroOut }},
		{"negsampling", func(c *Config) { c.NegSampling = true }},
		{"subsample", func(c *Config) { c.UsersPerEpoch = 7 }},
		{"scheduled", func(c *Config) { c.LRSchedule = opt.ExponentialSchedule{Gamma: 0.9} }},
	}
	fx := newTrainFixture(31)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resumeCase(SocialHausdorff)
			tc.mutate(&cfg)
			if cfg.Variant == NoHausdorff || cfg.Variant == ZeroOut {
				cfg.Lambda = 0
			}

			straight, err := Train(fx.x.Clone(), fx.side, cfg)
			if err != nil {
				t.Fatal(err)
			}

			ck := filepath.Join(t.TempDir(), "ck.json")
			half := cfg
			half.Epochs = 3
			half.CheckpointPath = ck
			if _, err := Train(fx.x.Clone(), fx.side, half); err != nil {
				t.Fatal(err)
			}

			resumedCfg := cfg
			resumedCfg.ResumePath = ck
			resumed, err := Train(fx.x.Clone(), fx.side, resumedCfg)
			if err != nil {
				t.Fatal(err)
			}
			modelsEqual(t, tc.name, straight, resumed)
		})
	}
}

func TestTrainResumeRejectsMismatch(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := resumeCase(NoHausdorff)
	cfg.Epochs = 2
	ck := filepath.Join(t.TempDir(), "ck.json")
	cfg.CheckpointPath = ck
	if _, err := Train(fx.x.Clone(), fx.side, cfg); err != nil {
		t.Fatal(err)
	}

	wrongRank := cfg
	wrongRank.CheckpointPath = ""
	wrongRank.ResumePath = ck
	wrongRank.Rank = 5
	if _, err := Train(fx.x.Clone(), fx.side, wrongRank); err == nil {
		t.Fatal("resume with mismatched rank must fail")
	}

	// A plain model file (no training state) is not resumable.
	m, _, err := loadCheckpointFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(t.TempDir(), "plain.json")
	if err := m.SaveFileVersioned(plain, 0); err != nil {
		t.Fatal(err)
	}
	noState := cfg
	noState.CheckpointPath = ""
	noState.ResumePath = plain
	if _, err := Train(fx.x.Clone(), fx.side, noState); err == nil {
		t.Fatal("resume from a stateless model file must fail")
	}
}

// TestCheckpointFileIsModelFile verifies the dual nature of a v3 checkpoint:
// Load reads it as a plain model, ignoring the training state.
func TestCheckpointFileIsModelFile(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := resumeCase(NoHausdorff)
	cfg.Epochs = 2
	ck := filepath.Join(t.TempDir(), "ck.json")
	cfg.CheckpointPath = ck
	trained, err := Train(fx.x.Clone(), fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadFileVersioned(ck)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, "checkpoint-as-model", trained, loaded)
}

func TestPersistV3RoundTripAndVersionGates(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := resumeCase(NoHausdorff)
	cfg.Epochs = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	if _, err := Train(fx.x.Clone(), fx.side, cfg); err != nil {
		t.Fatal(err)
	}
	m, st, err := loadCheckpointFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("checkpoint lost its training state")
	}
	if st.Epoch != 2 {
		t.Fatalf("checkpoint epoch = %d, want 2", st.Epoch)
	}
	if st.Opt.Algo != "adam" {
		t.Fatalf("checkpoint optimizer algo = %q, want adam", st.Opt.Algo)
	}
	if st.RNG.Seed != cfg.Seed || st.RNG.Draws == 0 {
		t.Fatalf("checkpoint RNG state %+v not recorded", st.RNG)
	}

	// Round-trip through a second save preserves every bit.
	second := filepath.Join(t.TempDir(), "ck2.json")
	if err := m.SaveCheckpointRotate(nil, second, 0, st); err != nil {
		t.Fatal(err)
	}
	m2, st2, err := loadCheckpointFile(second)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, "round-trip", m, m2)
	if st2.Epoch != st.Epoch || st2.RNG != st.RNG {
		t.Fatalf("state round-trip changed %+v to %+v", st, st2)
	}
	for name, mom := range st.Opt.M {
		for i := range mom {
			if st2.Opt.M[name][i] != mom[i] {
				t.Fatalf("Adam first moment %q[%d] changed in round-trip", name, i)
			}
		}
	}

	// Legacy plain files load with a nil state.
	plain := filepath.Join(t.TempDir(), "plain.json")
	if err := m.SaveFileVersioned(plain, 0); err != nil {
		t.Fatal(err)
	}
	_, stPlain, err := loadCheckpointFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if stPlain != nil {
		t.Fatal("plain model file must load with nil training state")
	}

	// Future versions are rejected loudly. The first "version" in a sealed
	// file is the frame header's; bumping it is how a future build's file
	// looks to this one.
	future := strings.Replace(readFileString(t, plain), `"version":4`, `"version":9`, 1)
	if _, _, err := Decode([]byte(future)); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("future version gave %v, want ErrFormatVersion", err)
	}
}

func readFileString(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOnlineUpdateMatchesEngine re-runs an online update twice from clones
// and checks determinism through the engine path (the serve writer loop
// depends on it).
func TestOnlineUpdateMatchesEngine(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := resumeCase(NoHausdorff)
	cfg.Epochs = 3
	m, err := Train(fx.x.Clone(), fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := DefaultOnlineConfig()
	ocfg.Epochs = 4
	ocfg.Lambda = 0.5

	run := func() *Model {
		mm := m.Clone()
		x := fx.x.Clone()
		if _, err := mm.UpdateOnline(x, fx.test[:3], fx.side, ocfg); err != nil {
			t.Fatal(err)
		}
		return mm
	}
	modelsEqual(t, "online-determinism", run(), run())
}
