// Differential gradient verification of every core loss head through the
// internal/check harness: unlike the hand-rolled spot checks in loss_test.go
// (kept as fast smoke tests), these sweep EVERY parameter element of every
// head — serial and sharded — at the harness's 1e-6 relative tolerance.
package core_test

import (
	"math/rand"
	"testing"

	"tcss/internal/check"
	"tcss/internal/core"
)

// headFixture bundles the shared setup of the loss-head checks: a positive
// model (predictions strictly inside the Hausdorff head's clamp range), the
// deterministic training tensor, and a gradient accumulator aliased into the
// checker params.
func headFixture(t *testing.T) (*check.TrainFixture, *core.Model, *core.Grads, []check.Param) {
	t.Helper()
	fx := check.NewTrainFixture(7)
	m := check.PositiveModel(fx.Train.DimI, fx.Train.DimJ, fx.Train.DimK, 4, 11)
	g := core.NewGrads(m)
	return fx, m, g, check.ModelParams(m, g)
}

func allUsers(n int) []int {
	users := make([]int, n)
	for i := range users {
		users[i] = i
	}
	return users
}

func TestGradcheckWholeDataLoss(t *testing.T) {
	fx, m, g, params := headFixture(t)
	for _, workers := range []int{1, 3} {
		f := func() float64 {
			g.Zero()
			return m.WholeDataLossWorkers(fx.Train, 0.99, 0.01, g, workers)
		}
		check.Assert(t, f, params, check.Options{})
	}
}

func TestGradcheckNegSamplingLoss(t *testing.T) {
	fx, m, g, params := headFixture(t)
	negs, err := core.SampleNegatives(fx.Train, 2*fx.Train.NNZ(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		f := func() float64 {
			g.Zero()
			return m.NegSamplingLossWorkers(fx.Train, negs, 0.99, 0.01, g, workers)
		}
		check.Assert(t, f, params, check.Options{})
	}
}

func TestGradcheckHausdorffLoss(t *testing.T) {
	fx, m, g, params := headFixture(t)
	users := allUsers(m.I)
	for _, entropy := range []bool{true, false} {
		entropyW := fx.Side.EntropyW
		if !entropy {
			entropyW = nil
		}
		head := core.NewHausdorff(fx.Side.Dist, entropyW, fx.Side.FriendPOIs)
		for _, workers := range []int{1, 3} {
			f := func() float64 {
				g.Zero()
				return head.LossWorkers(m, users, g, workers)
			}
			check.Assert(t, f, params, check.Options{})
		}
	}
}

// The non-harmonic (α ≠ −1) smooth-minimum branch takes a different code path
// through math.Pow; check it separately.
func TestGradcheckHausdorffNonHarmonicAlpha(t *testing.T) {
	fx, m, g, params := headFixture(t)
	head := core.NewHausdorff(fx.Side.Dist, fx.Side.EntropyW, fx.Side.FriendPOIs)
	head.Alpha = -2
	users := allUsers(m.I)
	f := func() float64 {
		g.Zero()
		return head.LossWorkers(m, users, g, 0)
	}
	check.Assert(t, f, params, check.Options{})
}

// The self-Hausdorff ablation swaps the friend sets for the user's own POIs.
func TestGradcheckSelfHausdorffLoss(t *testing.T) {
	fx, m, g, params := headFixture(t)
	head := core.NewHausdorff(fx.Side.Dist, fx.Side.EntropyW, fx.Side.OwnPOIs)
	users := allUsers(m.I)
	f := func() float64 {
		g.Zero()
		return head.LossWorkers(m, users, g, 0)
	}
	check.Assert(t, f, params, check.Options{})
}

// The full training objective λ·L1 + L2, composed exactly as core.Train
// composes it (separate head accumulator scaled by λ and merged).
func TestGradcheckCombinedTrainingLoss(t *testing.T) {
	fx, m, g, params := headFixture(t)
	head := core.NewHausdorff(fx.Side.Dist, fx.Side.EntropyW, fx.Side.FriendPOIs)
	gh := core.NewGrads(m)
	users := allUsers(m.I)
	const lambda = 5.0
	f := func() float64 {
		g.Zero()
		l2 := m.WholeDataLossWorkers(fx.Train, 0.99, 0.01, g, 2)
		gh.Zero()
		l1 := head.LossWorkers(m, users, gh, 2)
		g.DU1.AddInPlace(gh.DU1.Scale(lambda))
		g.DU2.AddInPlace(gh.DU2.Scale(lambda))
		g.DU3.AddInPlace(gh.DU3.Scale(lambda))
		for i := range g.DH {
			g.DH[i] += lambda * gh.DH[i]
		}
		return lambda*l1 + l2
	}
	check.Assert(t, f, params, check.Options{})
}

// Regression demonstrating the checker catches a deliberately broken core
// gradient: a 2% scale error on dH — the magnitude of a typical
// double-counted regularization term — must fail the check and be attributed
// to the right tensor.
func TestGradcheckCatchesSabotagedHeadGradient(t *testing.T) {
	fx, m, g, params := headFixture(t)
	f := func() float64 {
		g.Zero()
		loss := m.WholeDataLoss(fx.Train, 0.99, 0.01, g)
		for i := range g.DH {
			g.DH[i] *= 1.02
		}
		return loss
	}
	res := check.Gradients(f, params, check.Options{})
	if res.MaxRelErr() <= 1e-6 {
		t.Fatalf("sabotaged dH passed the checker: max rel-err %g", res.MaxRelErr())
	}
	if worst := res.Worst(); worst.Param != "h" {
		t.Fatalf("sabotage attributed to %q, want h:\n%s", worst.Param, res)
	}
}
