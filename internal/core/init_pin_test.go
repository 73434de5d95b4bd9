package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"tcss/internal/lbsn"
	"tcss/internal/mat"
	"tcss/internal/tensor"
)

// TestSpectralInitPinned pins, bit for bit, what the spectral
// initialization hands to training and what the baselines' SVD returns: a
// change to the eigen solver or to the Gram construction must leave every
// digest untouched. The fit goldens alone would not notice a reordered sum
// that happens to round the same at the final loss.
func TestSpectralInitPinned(t *testing.T) {
	want := map[string]string{
		"init":      "8a42228437dfaf3232bcea511c9167bbe1f84485afa5968fbb4e299e30b76dec",
		"svd":       "4ea6c6ff744cc694e8adc389b9ca70f555e8edaf541533d6a8a149762203232b",
		"hausdorff": "408b617ee6a9ce03bcd705f2a1969983c80ee58c1577e333014116526c60220c",
		"init-frac": "f3b8d7f45c428014b5cef0023f4e3e1ff543b0ec9647722064846cdb6c75efd5",
		"svd-wide":  "f0b8cf060ed3cd9386925605f534ef510401889d459c1d96cc43b27748da8d6d",
	}
	got := map[string]string{}
	digest := func(name string, fill func(word func(float64))) {
		h := sha256.New()
		fill(func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) })
		got[name] = hex.EncodeToString(h.Sum(nil))
	}

	// train-fit's and tcss.FitSplit's initial model: the gowalla preset at
	// seed 1, monthly, split 80/20 with seed 1, rank 10.
	cfg, err := lbsn.NewPreset(lbsn.PresetGowalla, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := lbsn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := ds.Tensor(lbsn.Month).Split(0.8, rand.New(rand.NewSource(1)))
	m := NewModel(train.DimI, train.DimJ, train.DimK, 10)
	if err := m.Initialize(SpectralInit, train, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	digest("init", func(word func(float64)) {
		for _, u := range []*mat.Matrix{m.U1, m.U2, m.U3} {
			for _, v := range u.Data {
				word(v)
			}
		}
		for _, v := range m.H {
			word(v)
		}
	})

	// The gowalla tensor is binary, so its Gram sums are integers that no
	// change of addition order could move. Fractional values in (0, 1] make
	// every reordered sum visible, on a user Gram small enough for Jacobi
	// (50 ≤ 64) and a POI Gram that takes orthogonal iteration (120 > 64).
	frng := rand.New(rand.NewSource(7))
	frac := tensor.NewCOO(50, 120, 12)
	for n := 0; n < 1500; n++ {
		frac.Set(frng.Intn(50), frng.Intn(120), frng.Intn(12), 1-frng.Float64())
	}
	fm := NewModel(frac.DimI, frac.DimJ, frac.DimK, 8)
	if err := fm.Initialize(SpectralInit, frac, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	digest("init-frac", func(word func(float64)) {
		for _, u := range []*mat.Matrix{fm.U1, fm.U2, fm.U3} {
			for _, v := range u.Data {
				word(v)
			}
		}
	})

	// The baselines' path: a dense 120×90 matrix (Jacobi on its Gram) and a
	// sparse 0/1 240×180 one, whose 180×180 Gram takes orthogonal iteration.
	rng := rand.New(rand.NewSource(5))
	dense := mat.Random(120, 90, 1, rng)
	sparse := mat.New(240, 180)
	for i := range sparse.Data {
		if rng.Float64() < 0.05 {
			sparse.Data[i] = 1
		}
	}
	svds := func(as ...*mat.Matrix) func(word func(float64)) {
		return func(word func(float64)) {
			for _, a := range as {
				svd, err := mat.ThinSVD(a, 8, rand.New(rand.NewSource(2)))
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range svd.S {
					word(v)
				}
				for _, v := range svd.U.Data {
					word(v)
				}
				for _, v := range svd.V.Data {
					word(v)
				}
			}
		}
	}
	digest("svd", svds(dense, sparse))
	// The same shapes transposed, wider than tall: ThinSVD then diagonalises
	// the row Gram A·Aᵀ (Jacobi at 90, orthogonal iteration at 180).
	wideDense := mat.Random(90, 120, 1, rng)
	wideSparse := mat.New(180, 240)
	for i := range wideSparse.Data {
		if rng.Float64() < 0.05 {
			wideSparse.Data[i] = 1
		}
	}
	digest("svd-wide", svds(wideDense, wideSparse))

	// The Hausdorff head on that initial model, serially so the digest does
	// not depend on the machine's core count.
	side, err := BuildSideInfo(ds.Social, ds.Distances(), train)
	if err != nil {
		t.Fatal(err)
	}
	head := NewHausdorff(side.Dist, side.EntropyW, side.FriendPOIs)
	users := make([]int, m.I)
	for i := range users {
		users[i] = i
	}
	grads := NewGrads(m)
	loss := head.LossWorkers(m, users, grads, 1)
	digest("hausdorff", func(word func(float64)) {
		word(loss)
		for _, g := range []*mat.Matrix{grads.DU1, grads.DU2, grads.DU3} {
			for _, v := range g.Data {
				word(v)
			}
		}
		for _, v := range grads.DH {
			word(v)
		}
	})

	for _, name := range []string{"init", "init-frac", "svd", "svd-wide", "hausdorff"} {
		if got[name] != want[name] {
			t.Errorf("%s digest %s, want %s", name, got[name], want[name])
		}
	}
}
