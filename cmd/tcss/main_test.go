package main

import (
	"path/filepath"
	"strings"
	"testing"

	"tcss"
	"tcss/internal/core"
)

func TestParseGranularity(t *testing.T) {
	cases := map[string]tcss.Granularity{
		"month": tcss.Month, "Week": tcss.Week, "HOUR": tcss.Hour,
	}
	for in, want := range cases {
		got, err := parseGranularity(in)
		if err != nil || got != want {
			t.Fatalf("parseGranularity(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseGranularity("day"); err == nil {
		t.Fatal("unknown granularity must error")
	}
}

func TestApplyVariant(t *testing.T) {
	cfg := tcss.DefaultConfig()
	if err := applyVariant(&cfg, "self"); err != nil || cfg.Variant != tcss.SelfHausdorff {
		t.Fatalf("self variant: %v %v", cfg.Variant, err)
	}
	if err := applyVariant(&cfg, "none"); err != nil || cfg.Variant != tcss.NoHausdorff || cfg.Lambda != 0 {
		t.Fatal("none variant must zero lambda")
	}
	if err := applyVariant(&cfg, "zero-out"); err != nil || cfg.Variant != tcss.ZeroOut {
		t.Fatal("zero-out variant")
	}
	if err := applyVariant(&cfg, "social"); err != nil || cfg.Variant != tcss.SocialHausdorff {
		t.Fatal("social variant")
	}
	if err := applyVariant(&cfg, "bogus"); err == nil {
		t.Fatal("unknown variant must error")
	}
}

func TestApplyInit(t *testing.T) {
	cfg := tcss.DefaultConfig()
	for in, want := range map[string]core.InitMethod{
		"spectral": tcss.SpectralInit, "random": tcss.RandomInit, "one-hot": tcss.OneHotInit,
	} {
		if err := applyInit(&cfg, in); err != nil || cfg.Init != want {
			t.Fatalf("applyInit(%q) = %v, %v", in, cfg.Init, err)
		}
	}
	if err := applyInit(&cfg, "xavier"); err == nil {
		t.Fatal("unknown init must error")
	}
}

func TestLoadDatasetValidation(t *testing.T) {
	if _, err := loadDataset("", "", 1); err == nil {
		t.Fatal("neither preset nor data must error")
	}
	if _, err := loadDataset("gowalla", "/tmp/x", 1); err == nil {
		t.Fatal("both preset and data must error")
	}
	if _, err := loadDataset("unknown-preset", "", 1); err == nil {
		t.Fatal("unknown preset must error")
	}
}

// TestTrainValidate is the `tcss` boot table: argv → the error validate must
// return before a dataset is generated, or "" for a vector that must pass.
func TestTrainValidate(t *testing.T) {
	for _, tc := range []struct{ argv, want string }{
		{"-preset gmu-5k", ""},
		// Every `tcss` invocation of scripts/smoke.sh (resume, crash, quant).
		{"-preset gmu-5k -rank 4 -epochs 4 -save straight.json", ""},
		{"-preset gmu-5k -rank 4 -epochs 2 -checkpoint ck.json", ""},
		{"-preset gmu-5k -rank 4 -epochs 4 -resume ck.json -save resumed.json", ""},
		{"-preset gmu-5k -rank 12 -epochs 40 -storage int8 -save-binary model.bin", ""},
		{"-preset gmu-5k -rank 4 -epochs 4 -checkpoint ck.json -checkpoint-every 1 -checkpoint-keep 2 -fault crash-save=3@4096", ""},
		{"-preset gmu-5k -recommend 1 -time 11", ""},
		{"-preset gmu-5k -granularity week -recommend 1 -time 52", ""},
		{"-preset gmu-5k -time 99", ""}, // -time without -recommend is merely unused
		{"", "one of -preset or -data is required"},
		{"-preset gmu-5k -data d", "not both"},
		{"-preset nope", "nope"},
		{"-preset gmu-5k -granularity day", "unknown granularity"},
		{"-preset gmu-5k -variant bogus", "unknown variant"},
		{"-preset gmu-5k -init xavier", "unknown init"},
		{"-preset gmu-5k -storage f16", "unknown storage mode"},
		{"-preset gmu-5k -fault boom", "unknown -fault spec"},
		{"-preset gmu-5k -recommend 1 -time 99", "-time 99 out of range"}, // panicked after training at the parent
		{"-preset gmu-5k -recommend 1 -time 12", "-time 12 out of range"},
		{"-preset gmu-5k -recommend 1 -time -1", "-time -1 out of range"},
	} {
		var c trainConfig
		c.flags().Parse(strings.Fields(tc.argv))
		checkErr(t, "tcss "+tc.argv, c.validate(), tc.want)
	}
}

// A user id past the dataset is rejected once the dataset is loaded and
// before training: with this epoch count, reaching Fit would never return.
func TestTrainRejectsUserBeforeTraining(t *testing.T) {
	err := trainMain(strings.Fields("-preset gmu-5k -epochs 100000000 -recommend 99999"))
	checkErr(t, "tcss -recommend 99999", err, "user 99999 out of range")
}

// TestServeValidate is the `tcss serve` boot table. Every rejection comes
// from validate, which takes only the flags: no dataset exists yet, no file
// has been opened, nothing is trained. The OK rows pin that validation never
// becomes stricter than the callers this repo ships.
func TestServeValidate(t *testing.T) {
	// The vectors tcssgw -spawn builds (cmd/tcssgw nodeArgs, pinned there by
	// TestNodeArgs): a primary, and a replica of it.
	const spawned = "-addr 127.0.0.1:9100 -shard-name shard-0 -cluster-shards shard-0,shard-1 -vnodes 0 -seed 7 " +
		"-synth-users 100000 -synth-pois 1000 -synth-times 12 -synth-rank 8 "
	// The node() helper of scripts/smoke.sh's chaos scenario.
	const chaosNode = "-addr 127.0.0.1:19210 -shard-name shard-0 -cluster-shards shard-0,shard-1 " +
		"-seed 7 -synth-users 20000 -synth-pois 1000 -synth-times 12 -synth-rank 8 "
	for _, tc := range []struct{ argv, want string }{
		{spawned + "-first-gen 1", ""},
		{spawned + "-replica-of http://127.0.0.1:9100 -sync-wait 1m0s", ""},
		{chaosNode + "-first-gen 1", ""},
		{chaosNode + "-replica-of http://127.0.0.1:19210 -sync-wait 60s -max-gen-lag 64", ""},
		// The single-node scenarios of scripts/smoke.sh: serve, quant, drift, ab.
		{"-preset gmu-5k -epochs 40 -addr 127.0.0.1:18092", ""},
		{"-preset gmu-5k -model model.bin -addr 127.0.0.1:18093", ""},
		{"-preset gmu-5k -epochs 40 -grow -half-life 64 -addr 127.0.0.1:18095", ""},
		{"-preset gmu-5k -epochs 40 -rank 8 -seq STRNN -seq-epochs 3 -seq-rank 8 -seq-save strnn.state " +
			"-ab STRNN=0.5 -shadow STRNN -addr 127.0.0.1:18094", ""},
		{"-preset gowalla -addr :8080", ""}, // make serve
		{"-data d -model m.json -storage f32 -snapshot s.bin -snapshot-keep 2", ""},
		{"-preset gmu-5k -seq-state strnn.state -shadow STRNN", ""},
		{"-preset gmu-5k -grow -model m.bin -storage f64", ""},
		{"-preset gmu-5k -snapshot-keep 3 -sync-every 1s", ""}, // dependent flags merely unused

		{"-preset gmu-5k -epochs 40 -cluster-shards a,b", "-cluster-shards requires -shard-name"},
		{"-synth-users 100 -shard-name x -cluster-shards a,b", `-shard-name "x" is not one of`},
		{"-preset gmu-5k -granularity day", "unknown granularity"},
		{"-preset gmu-5k -storage f16", "unknown storage mode"},
		{"-preset gmu-5k -seq STRNN,GRU4Rec", `unknown sequential model "GRU4Rec"`},
		{"-preset gmu-5k -seq STRNN -ab STRNN", "-ab wants NAME=FRACTION"},
		{"-preset gmu-5k -seq STRNN -ab STRNN=1.5", "-ab wants NAME=FRACTION"},
		{"-preset gmu-5k -seq STRNN -ab =0.5", "-ab wants NAME=FRACTION"},
		{"-preset gmu-5k -ab STRNN=0.5", "-ab/-shadow need a second model"},
		{"-preset gmu-5k -shadow STRNN", "-ab/-shadow need a second model"},
		{"-synth-users 1000 -preset gmu-5k", "-synth-users is incompatible with"},
		{"-synth-users 1000 -data d", "-synth-users is incompatible with"},
		{"-synth-users 1000 -model m.bin", "-synth-users is incompatible with"},
		{"-synth-users 1000 -storage int8", "-synth-users is incompatible with"},
		{"-synth-users 1000 -resume ck.json", "-synth-users is incompatible with"},
		{"-synth-users 1000 -checkpoint ck.json", "-synth-users is incompatible with"},
		{"-synth-users 1000 -seq STRNN", "-synth-users is incompatible with"},
		{"-synth-users 1000 -seq-state s", "-synth-users is incompatible with"},
		{"-synth-users 1000 -seq STRNN -ab STRNN=0.5", "-synth-users is incompatible with"},
		{"-synth-users 1000 -seq-state s -shadow STRNN", "-synth-users is incompatible with"},
		{"", "one of -preset or -data is required"},
		{"-preset gmu-5k -data d", "not both"},
		{"-preset nope", "nope"},
		{"-preset gmu-5k -model m.bin -resume ck.json", "incompatible with -model"},
		{"-preset gmu-5k -model m.bin -checkpoint ck.json", "incompatible with -model"},
		{"-synth-users 1000 -replica-of http://127.0.0.1:9100 -grow", "-grow is incompatible with -replica-of"},
		{"-preset gmu-5k -grow -storage int8", "-grow needs float64 factors"},
		{"-preset gmu-5k -grow -storage f32", "-grow needs float64 factors"},
	} {
		var c serveConfig
		c.flags().Parse(strings.Fields(tc.argv))
		checkErr(t, "tcss serve "+tc.argv, c.validate(), tc.want)
	}
}

// A compact mode stored in the -model file is the one contradiction with
// -grow that only the open can show; it is reported then, before the model
// is attached or the node listens (the parent booted and answered every
// growth batch 503).
func TestServeRejectsCompactModelFileWithGrow(t *testing.T) {
	ds, err := loadDataset("gmu-5k", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tcss.DefaultConfig()
	cfg.Epochs, cfg.Rank, cfg.Storage = 1, 2, core.StorageInt8
	rec, err := tcss.Fit(ds, tcss.Month, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := rec.SaveModelBinary(path); err != nil {
		t.Fatal(err)
	}

	source := func(argv string) error {
		var c serveConfig
		c.flags().Parse(strings.Fields(argv))
		if err := c.validate(); err != nil {
			t.Fatalf("validate(%s): %v", argv, err)
		}
		_, _, mf, err := c.source()
		if mf != nil {
			mf.Close()
		}
		return err
	}
	checkErr(t, "-grow on an int8 file", source("-preset gmu-5k -grow -model "+path), "add -storage f64")
	checkErr(t, "-grow -storage f64 on an int8 file", source("-preset gmu-5k -grow -storage f64 -model "+path), "")
	checkErr(t, "no -grow on an int8 file", source("-preset gmu-5k -model "+path), "")
}

// checkErr fails unless err is nil for want == "" or contains want otherwise.
func checkErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: unexpected error %v", what, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("%s: error %v, want one containing %q", what, err, want)
	}
}
