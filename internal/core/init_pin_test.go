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
	digest("svd", func(word func(float64)) {
		for _, a := range []*mat.Matrix{dense, sparse} {
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
	})

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

	for _, name := range []string{"init", "svd", "hausdorff"} {
		if got[name] != want[name] {
			t.Errorf("%s digest %s, want %s", name, got[name], want[name])
		}
	}
}
