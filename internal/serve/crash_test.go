package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"tcss/internal/core"
	"tcss/internal/fault"
)

// snapModel builds a small deterministic model whose factor values encode
// tag, so a recovered file can be identified byte-for-byte.
func snapModel(tag float64) *core.Model {
	m := core.NewModel(5, 4, 3, 2)
	fill := func(s []float64, base float64) {
		for i := range s {
			s[i] = base + float64(i)/16
		}
	}
	fill(m.U1.Data, tag)
	fill(m.U2.Data, tag+100)
	fill(m.U3.Data, tag+200)
	fill(m.H, tag+300)
	return m
}

// TestCrashKillSweepSnapshotSave is the crash-kill harness for the serving
// snapshot path: with a good generation-1 snapshot on disk, it sweeps an
// injected crash through every byte of the generation-2 save (and through
// every filesystem op), and after each crash demands the fallback loader
// recovers an intact snapshot — either generation, but never a torn hybrid.
func TestCrashKillSweepSnapshotSave(t *testing.T) {
	m1, m2 := snapModel(1000), snapModel(2000)

	// Probe: size of one rotated save.
	probeDir := t.TempDir()
	probe := fault.NewInjectFS(nil, fault.Plan{})
	if err := m2.SaveBinaryRotate(probe, filepath.Join(probeDir, "snap.bin"), 1, 2); err != nil {
		t.Fatal(err)
	}
	totalBytes := probe.BytesWritten()
	if totalBytes == 0 {
		t.Fatal("probe save wrote nothing")
	}

	points := 0
	runPoint := func(name string, plan fault.Plan) {
		points++
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.bin")
		if err := m1.SaveBinaryRotate(nil, path, 1, 1); err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjectFS(nil, plan)
		err := m2.SaveBinaryRotate(inj, path, 1, 2)
		if err == nil {
			// Only a best-effort-op crash (directory sync) lets the save
			// complete; the published file must then be generation 2.
			if !inj.Crashed() {
				t.Fatalf("%s: crash point did not fire", name)
			}
		} else if !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("%s: save failed with %v, want an injected crash", name, err)
		}
		got, f, lerr := core.Open(path)
		if lerr != nil {
			t.Fatalf("%s: no intact snapshot on the ladder: %v", name, lerr)
		}
		gen, from := f.Generation, f.From
		var want *core.Model
		switch gen {
		case 1:
			want = m1
		case 2:
			want = m2
		default:
			t.Fatalf("%s: recovered impossible generation %d from %s", name, gen, from)
		}
		for i := range want.U1.Data {
			if got.U1.Data[i] != want.U1.Data[i] {
				t.Fatalf("%s: recovered gen %d with torn factors at U1[%d]", name, gen, i)
			}
		}
	}

	// Byte sweep: every single byte of the snapshot write is a crash point.
	for b := int64(1); b <= totalBytes; b++ {
		runPoint(fmt.Sprintf("byte-%d", b), fault.Plan{CrashAtByte: b})
	}
	for _, op := range []fault.Op{fault.OpCreate, fault.OpSync, fault.OpClose, fault.OpRename, fault.OpSyncDir} {
		n := probe.OpCount(op)
		if n == 0 {
			t.Fatalf("probe save performed no %s ops", op)
		}
		for i := 0; i < n; i++ {
			runPoint(fmt.Sprintf("op-%s-%d", op, i), fault.Plan{CrashOp: op, CrashOpIndex: i})
		}
	}

	if points < 100 {
		t.Fatalf("sweep covered %d crash points, want >= 100", points)
	}
	t.Logf("snapshot crash sweep: %d points over %d bytes", points, totalBytes)
}
