package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tcss/internal/fault"
	"tcss/internal/train"
)

// crashSweepConfig is the training configuration every crash point runs
// under: small enough that hundreds of runs stay fast, checkpointing every
// epoch with a two-deep rotation ladder.
func crashSweepConfig() Config {
	cfg := resumeCase(SocialHausdorff)
	cfg.Epochs = 4
	cfg.CheckpointEvery = 1
	cfg.CheckpointKeep = 2
	return cfg
}

// loadCheckpointFile opens exactly one model file, no ladder, and returns the
// model with the training state it carries (nil for a plain model).
func loadCheckpointFile(path string) (*Model, *train.State, error) {
	m, f, err := openRung(path, JSONVersion, BinaryVersion)
	if err != nil {
		return nil, nil, err
	}
	return m, f.Train, f.Close()
}

// loadCheckpointFallback is loadCheckpointFile over the rotation ladder,
// also returning the rung that loaded.
func loadCheckpointFallback(path string) (*Model, *train.State, string, error) {
	m, f, err := Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	return m, f.Train, f.From, f.Close()
}

// recoverAndFinish plays the recovery protocol after a crashed run: resume
// from the newest intact checkpoint on the rotation ladder, or start fresh
// when no checkpoint survived (a crash during the very first save), and
// train to completion.
func recoverAndFinish(t *testing.T, fx *trainFixture, cfg Config, ck string) *Model {
	t.Helper()
	resumed := cfg
	resumed.CheckpointPath, resumed.CheckpointEvery, resumed.CheckpointKeep = "", 0, 0
	resumed.FS = nil
	if _, _, _, err := loadCheckpointFallback(ck); err == nil {
		resumed.ResumePath = ck
	}
	m, err := Train(fx.x.Clone(), fx.side, resumed)
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	return m
}

// TestCrashKillSweepCheckpointResume is the crash-kill harness for the
// training checkpoint path: it sweeps an injected crash through every region
// of the checkpoint byte stream (and through every filesystem operation the
// writer performs), and after each crash demands that (a) the rotation
// ladder still holds a loadable, consistent checkpoint — or nothing, if the
// crash predates the first publish — and (b) a run recovered from that state
// finishes bit-identical to an uninterrupted run.
func TestCrashKillSweepCheckpointResume(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := crashSweepConfig()

	straight, err := Train(fx.x.Clone(), fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Probe run: learn the checkpoint stream's size and op counts under the
	// exact schedule the sweep will replay.
	probeDir := t.TempDir()
	probe := fault.NewInjectFS(nil, fault.Plan{})
	probeCfg := cfg
	probeCfg.CheckpointPath = filepath.Join(probeDir, "ck.json")
	probeCfg.FS = probe
	if m, err := Train(fx.x.Clone(), fx.side, probeCfg); err != nil {
		t.Fatal(err)
	} else {
		modelsEqual(t, "probe", straight, m)
	}
	totalBytes := probe.BytesWritten()
	if totalBytes == 0 {
		t.Fatal("probe run wrote no checkpoint bytes")
	}

	points := 0
	runPoint := func(name string, plan fault.Plan) {
		points++
		dir := t.TempDir()
		ck := filepath.Join(dir, "ck.json")
		crashed := cfg
		crashed.CheckpointPath = ck
		inj := fault.NewInjectFS(nil, plan)
		crashed.FS = inj
		m, err := Train(fx.x.Clone(), fx.side, crashed)
		if err == nil {
			// A crash in a best-effort op (directory sync) after the final
			// checkpoint lets training complete; the result must still match.
			modelsEqual(t, name+"/uninterrupted", straight, m)
			return
		}
		if !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("%s: train failed with %v, want an injected crash", name, err)
		}
		// Recovery invariant: whatever the ladder holds must load cleanly
		// with a consistent epoch, then finish bit-identical.
		if _, st, from, lerr := loadCheckpointFallback(ck); lerr == nil {
			if st == nil {
				t.Fatalf("%s: recovered %s has no training state", name, from)
			}
			if st.Epoch < 1 || st.Epoch > cfg.Epochs {
				t.Fatalf("%s: recovered %s at impossible epoch %d", name, from, st.Epoch)
			}
		}
		modelsEqual(t, name, straight, recoverAndFinish(t, fx, cfg, ck))
	}

	// Byte sweep: a crash point in every ~1% stripe of the checkpoint
	// stream, covering all four saves' headers, payloads, and tails.
	stride := totalBytes / 110
	if stride < 1 {
		stride = 1
	}
	for b := int64(1); b <= totalBytes; b += stride {
		runPoint(fmt.Sprintf("byte-%d", b), fault.Plan{CrashAtByte: b})
	}
	// Op sweep: crash at every occurrence of every filesystem operation.
	for _, op := range []fault.Op{fault.OpCreate, fault.OpSync, fault.OpClose, fault.OpRename, fault.OpSyncDir} {
		n := probe.OpCount(op)
		if n == 0 {
			t.Fatalf("probe run performed no %s ops", op)
		}
		for i := 0; i < n; i++ {
			runPoint(fmt.Sprintf("op-%s-%d", op, i), fault.Plan{CrashOp: op, CrashOpIndex: i})
		}
	}

	if points < 120 {
		t.Fatalf("sweep covered %d crash points, want >= 120", points)
	}
	t.Logf("crash sweep: %d points over %d checkpoint bytes", points, totalBytes)
}

// TestTornCheckpointFallback kills a checkpoint write mid-stream and checks
// the resume path itself (Train with ResumePath) silently falls back to the
// previous intact rung instead of failing on the torn primary.
func TestTornCheckpointFallback(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := crashSweepConfig()
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")

	straight, err := Train(fx.x.Clone(), fx.side, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Train with checkpoints, then plant a torn file at the primary path as
	// if a crash had landed after rename but the disk tore the contents
	// (short write): the intact previous epoch must win.
	crashed := cfg
	crashed.CheckpointPath = ck
	if _, err := Train(fx.x.Clone(), fx.side, crashed); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, st, from, err := loadCheckpointFallback(ck)
	if err != nil {
		t.Fatalf("fallback failed over torn primary: %v", err)
	}
	if from != fault.RotatedPath(ck, 1) {
		t.Fatalf("fallback loaded %s, want the first rotated rung", from)
	}
	if st == nil || st.Epoch != cfg.Epochs-1 {
		t.Fatalf("fallback state = %+v, want epoch %d", st, cfg.Epochs-1)
	}

	resumed := cfg
	resumed.CheckpointPath, resumed.CheckpointEvery, resumed.CheckpointKeep = "", 0, 0
	resumed.ResumePath = ck
	m, err := Train(fx.x.Clone(), fx.side, resumed)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, "torn-primary-resume", straight, m)
}

// TestTornModelFileTable drives the loaders over every way a file can be
// torn or corrupted: truncation at each section boundary, a flipped byte
// (which must surface the checksum sentinel), an empty file, and a directory
// where a file should be.
func TestTornModelFileTable(t *testing.T) {
	fx := newTrainFixture(31)
	cfg := crashSweepConfig()
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	ckCfg := cfg
	ckCfg.CheckpointPath = ck
	if _, err := Train(fx.x.Clone(), fx.side, ckCfg); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := bytes.IndexByte(good, '\n') + 1
	if headerLen <= 0 {
		t.Fatal("sealed file has no header line")
	}

	cases := []struct {
		name         string
		mutate       func(dir string) string // returns the path to load
		wantChecksum bool                    // errors.Is(err, ErrChecksum)
	}{
		{"empty file", func(dir string) string {
			p := filepath.Join(dir, "f")
			os.WriteFile(p, nil, 0o644)
			return p
		}, false},
		{"truncated mid-header", func(dir string) string {
			p := filepath.Join(dir, "f")
			os.WriteFile(p, good[:headerLen/2], 0o644)
			return p
		}, false},
		{"header only", func(dir string) string {
			p := filepath.Join(dir, "f")
			os.WriteFile(p, good[:headerLen], 0o644)
			return p
		}, true},
		{"half payload", func(dir string) string {
			p := filepath.Join(dir, "f")
			os.WriteFile(p, good[:headerLen+(len(good)-headerLen)/2], 0o644)
			return p
		}, true},
		{"one byte short", func(dir string) string {
			p := filepath.Join(dir, "f")
			os.WriteFile(p, good[:len(good)-1], 0o644)
			return p
		}, true},
		{"flipped payload byte", func(dir string) string {
			p := filepath.Join(dir, "f")
			mut := append([]byte(nil), good...)
			mut[headerLen+len(mut[headerLen:])/3] ^= 0xFF
			os.WriteFile(p, mut, 0o644)
			return p
		}, true},
		{"directory instead of file", func(dir string) string {
			p := filepath.Join(dir, "d")
			os.Mkdir(p, 0o755)
			return p
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mutate(t.TempDir())
			_, _, errV := LoadFileVersioned(p)
			_, _, errC := loadCheckpointFile(p)
			for which, err := range map[string]error{"LoadFileVersioned": errV, "loadCheckpointFile": errC} {
				if err == nil {
					t.Fatalf("%s accepted a %s", which, tc.name)
				}
				if tc.wantChecksum && !errors.Is(err, ErrChecksum) {
					t.Fatalf("%s: err = %v, want ErrChecksum", which, err)
				}
				if !tc.wantChecksum && errors.Is(err, ErrChecksum) {
					t.Fatalf("%s: err = %v, want a non-checksum failure", which, err)
				}
			}
		})
	}

	// The intact file still loads through both entry points.
	if _, _, err := LoadFileVersioned(ck); err != nil {
		t.Fatalf("intact file rejected: %v", err)
	}
	if _, st, err := loadCheckpointFile(ck); err != nil || st == nil {
		t.Fatalf("intact checkpoint rejected: %v (state %v)", err, st)
	}
}
