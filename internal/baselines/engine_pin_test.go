package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tcss/internal/core"
)

// TestTrainEnginePinned pins the training engine bit for bit on both of its
// regimes: the bytes of a full-batch core.Train checkpoint written at epoch 3
// of 6, the factors of the run resumed from it, and the parameters a
// mini-batch baseline (NCF, through fitEngine) ends with. A change to the
// epoch loop, the optimizer or the checkpoint encoding must leave every
// digest untouched, so checkpoint files written before it still resume.
func TestTrainEnginePinned(t *testing.T) {
	want := map[string]string{
		"checkpoint": "3f635cba5c09ef46a12e00ca117d5e609287663f45c42030f197b3b7e4196607",
		"resumed":    "0d018ef4d83325e2db84683fe13aacc74c5896152a5335c1d6fc1e46f6d7aca2",
		"ncf":        "af167e5a61d3b9ae1fe9cf0485c217d5a210f06bc4192bbd807f028cc3a6ae27",
	}
	got := map[string]string{}
	digest := func(name string, fill func(word func(float64))) {
		h := sha256.New()
		fill(func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) })
		got[name] = hex.EncodeToString(h.Sum(nil))
	}

	fx := newFixture(3)
	side, err := core.BuildSideInfo(fx.ctx.Social, fx.ctx.Dist, fx.ctx.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Rank, cfg.Epochs, cfg.GradClip, cfg.Workers, cfg.Seed = 4, 6, 5, 1, 13
	ck := filepath.Join(t.TempDir(), "ck.json")
	cfg.CheckpointPath, cfg.CheckpointEvery, cfg.CheckpointKeep = ck, 3, 1
	if _, err := core.Train(fx.ctx.Train.Clone(), side, cfg); err != nil {
		t.Fatal(err)
	}
	// The final save rotated the epoch-3 checkpoint to ck.1.
	mid, err := os.ReadFile(ck + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if _, f, err := core.Open(ck + ".1"); err != nil || f.Train == nil || f.Train.Epoch != 3 {
		t.Fatalf("ck.1 is not the epoch-3 checkpoint (err %v)", err)
	}
	h := sha256.Sum256(mid)
	got["checkpoint"] = hex.EncodeToString(h[:])

	resumed := cfg
	resumed.CheckpointPath, resumed.ResumePath = "", ck+".1"
	m, err := core.Train(fx.ctx.Train.Clone(), side, resumed)
	if err != nil {
		t.Fatal(err)
	}
	digest("resumed", func(word func(float64)) {
		for _, data := range [][]float64{m.U1.Data, m.U2.Data, m.U3.Data, m.H} {
			for _, v := range data {
				word(v)
			}
		}
	})

	ncf := NewNCF()
	if err := ncf.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	digest("ncf", func(word func(float64)) {
		for _, l := range ncf.layers() {
			for _, p := range l.Params() {
				for _, v := range p.Value {
					word(v)
				}
			}
		}
	})

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest %s, want %s", name, got[name], w)
		}
	}
}
