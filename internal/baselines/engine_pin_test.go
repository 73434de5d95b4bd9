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
	"tcss/internal/mat"
	"tcss/internal/nn"
)

// TestTrainEnginePinned pins the training engine bit for bit on both of its
// regimes: the bytes of a full-batch core.Train checkpoint written at epoch 3
// of 6, the factors of the run resumed from it, the factors of a run whose
// Hausdorff head subsamples users over two workers, and the parameters the
// mini-batch baselines (NCF, NTM, CoSTCo, through fitEngine) end with. CP's
// and TenInt's ALS factors ride along. A change to the epoch loop, the
// optimizer or the checkpoint encoding must leave every digest untouched, so
// checkpoint files written before it still resume.
func TestTrainEnginePinned(t *testing.T) {
	want := map[string]string{
		"checkpoint": "73dbe5561001afbdd202c287c076b704642525c6e84700d9a17f67a4259f0778",
		"resumed":    "98fb1e193f7d14c8a5094d30b731953b0732b4b16dbc393491466d85b7b05d27",
		"ncf":        "af167e5a61d3b9ae1fe9cf0485c217d5a210f06bc4192bbd807f028cc3a6ae27",
		"subsampled": "c2e2a33840f232fcd9f8098cb828c93d363614ec3655ecc931e7b1f2497be7c8",
		"ntm":        "b51937fada0352b5301e9c9d26a0fb4bf8532c21cff40c6068346f75e0a3a255",
		"costco":     "36446f7c47ed6a321476b768874746a0235566812cd6c0dc7cd56db55db8c001",
		"cp":         "6c466ee0be12a4111019ff47515fa4702a9df5cb77786c5a0b50c018e603ea44",
		"tenint":     "4e5b8304df4ed1189ae2a2d3b1a55a4779536a71d732b77d8215e02d05681349",
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
	cfg.Rank, cfg.Epochs, cfg.Workers, cfg.Seed = 4, 6, 1, 13
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

	sub := core.DefaultConfig()
	sub.Rank, sub.Epochs, sub.Workers, sub.Seed, sub.UsersPerEpoch = 4, 5, 2, 17, 5
	if sub.UsersPerEpoch >= fx.ctx.Train.DimI {
		t.Fatalf("UsersPerEpoch %d does not subsample %d users", sub.UsersPerEpoch, fx.ctx.Train.DimI)
	}
	sm, err := core.Train(fx.ctx.Train.Clone(), side, sub)
	if err != nil {
		t.Fatal(err)
	}
	digest("subsampled", func(word func(float64)) {
		for _, data := range [][]float64{sm.U1.Data, sm.U2.Data, sm.U3.Data, sm.H} {
			for _, v := range data {
				word(v)
			}
		}
	})

	params := func(word func(float64), ps []nn.Param) {
		for _, p := range ps {
			for _, v := range p.Value {
				word(v)
			}
		}
	}
	ntm := NewNTM()
	if err := ntm.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	digest("ntm", func(word func(float64)) {
		for _, l := range []nn.Layer{ntm.emb[0], ntm.emb[1], ntm.emb[2], ntm.mlp, ntm.w} {
			params(word, l.Params())
		}
	})
	costco := NewCoSTCo()
	if err := costco.Fit(fx.ctx); err != nil {
		t.Fatal(err)
	}
	digest("costco", func(word func(float64)) {
		for _, data := range [][]float64{costco.w1, costco.b1, costco.w2, costco.b2} {
			for _, v := range data {
				word(v)
			}
		}
		for _, l := range []nn.Layer{costco.emb[0], costco.emb[1], costco.emb[2], costco.head} {
			params(word, l.Params())
		}
	})

	cp, tenint := NewCP(), NewTenInt()
	for _, fit := range []struct {
		name string
		rec  Recommender
		u    func() [3]*mat.Matrix
	}{
		{"cp", cp, func() [3]*mat.Matrix { return [3]*mat.Matrix{cp.u1, cp.u2, cp.u3} }},
		{"tenint", tenint, func() [3]*mat.Matrix { return [3]*mat.Matrix{tenint.u1, tenint.u2, tenint.u3} }},
	} {
		if err := fit.rec.Fit(fx.ctx); err != nil {
			t.Fatal(err)
		}
		digest(fit.name, func(word func(float64)) {
			for _, u := range fit.u() {
				for _, v := range u.Data {
					word(v)
				}
			}
		})
	}

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest %s, want %s", name, got[name], w)
		}
	}
}
