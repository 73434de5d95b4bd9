package train

import (
	"math/rand"
	"testing"

	"tcss/internal/opt"
	"tcss/internal/tensor"
)

// TestRNGStreamTransparent pins the property the whole refactor rests on: an
// engine RNG consumes the exact stream of rand.New(rand.NewSource(seed)), so
// loops moved onto the engine reproduce their pre-engine trajectories.
func TestRNGStreamTransparent(t *testing.T) {
	ref := rand.New(rand.NewSource(42))
	r := NewRNG(42)
	for i := 0; i < 200; i++ {
		switch i % 5 {
		case 0:
			if a, b := ref.Int63(), r.Int63(); a != b {
				t.Fatalf("Int63 diverged at %d: %d vs %d", i, a, b)
			}
		case 1:
			if a, b := ref.Float64(), r.Float64(); a != b {
				t.Fatalf("Float64 diverged at %d: %g vs %g", i, a, b)
			}
		case 2:
			if a, b := ref.Intn(17), r.Intn(17); a != b {
				t.Fatalf("Intn diverged at %d: %d vs %d", i, a, b)
			}
		case 3:
			if a, b := ref.NormFloat64(), r.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 diverged at %d: %g vs %g", i, a, b)
			}
		case 4:
			pa, pb := ref.Perm(9), r.Perm(9)
			for n := range pa {
				if pa[n] != pb[n] {
					t.Fatalf("Perm diverged at %d", i)
				}
			}
		}
	}
}

// TestRNGRestoreResumesStream checkpoints the stream position mid-run and
// verifies a restored RNG produces the identical continuation.
func TestRNGRestoreResumesStream(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		r.Intn(100 + i%3) // mix draw widths, including rejection retries
	}
	st := r.State()
	want := make([]float64, 50)
	for i := range want {
		want[i] = r.Float64()
	}
	fresh := NewRNG(0)
	fresh.Restore(st)
	if fresh.State() != st {
		t.Fatalf("restored state %+v, want %+v", fresh.State(), st)
	}
	for i := range want {
		if got := fresh.Float64(); got != want[i] {
			t.Fatalf("restored stream diverged at %d", i)
		}
	}
	// In-place restore: closures holding the inner rand.Rand see it too.
	inner := r.Rand
	r.Restore(st)
	for i := range want {
		if got := inner.Float64(); got != want[i] {
			t.Fatalf("in-place restore not visible through retained rand.Rand at %d", i)
		}
	}
}

// quad is a 2-parameter toy model with loss Σ (p_i − target_i)².
type quad struct {
	GroupSet
	target []float64
}

func newQuad(init, target []float64) *quad {
	p := append([]float64(nil), init...)
	g := make([]float64, len(p))
	return &quad{
		GroupSet: GroupSet{{Name: "p", Value: p, Grad: g}},
		target:   target,
	}
}

func (q *quad) loss() float64 {
	var l float64
	p, g := q.GroupSet[0].Value, q.GroupSet[0].Grad
	for i := range p {
		d := p[i] - q.target[i]
		l += d * d
		g[i] += 2 * d
	}
	return l
}

func TestDriverFullBatchConverges(t *testing.T) {
	q := newQuad([]float64{4, -3}, []float64{1, 2})
	var losses []float64
	d, err := New(q, []Head{HeadFunc{W: 1, F: func(int) (float64, error) { return q.loss(), nil }}},
		nil, opt.NewAdam(0.2, 0), nil, Config{
			Epochs:   120,
			Callback: func(epoch int, loss float64) { losses = append(losses, loss) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if len(losses) != 120 {
		t.Fatalf("callback ran %d times, want 120", len(losses))
	}
	if losses[len(losses)-1] > 1e-3 || losses[len(losses)-1] > losses[0] {
		t.Fatalf("no convergence: first %g last %g", losses[0], losses[len(losses)-1])
	}
	if d.Epoch() != 120 {
		t.Fatalf("Epoch() = %d, want 120", d.Epoch())
	}
}

// TestDriverHeadWeights verifies the reported loss is Σ weight·loss.
func TestDriverHeadWeights(t *testing.T) {
	q := newQuad([]float64{1}, []float64{1})
	var got float64
	heads := []Head{
		HeadFunc{W: 1, F: func(int) (float64, error) { return 2, nil }},
		HeadFunc{W: 0.5, F: func(int) (float64, error) { return 4, nil }},
	}
	d, err := New(q, heads, nil, opt.NewAdam(0, 0), nil, Config{
		Epochs:   1,
		Callback: func(_ int, loss float64) { got = loss },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("weighted loss = %g, want 4", got)
	}
}

// TestDriverGradClip verifies the driver clips the joint norm across groups
// before stepping, matching hand-rolled Adam steps on the clipped gradient.
// Adam's first step does not depend on the gradient's scale, so the run takes
// several: clipping every gradient to norm 1 changes the later ones.
func TestDriverGradClip(t *testing.T) {
	const epochs = 4
	run := func(clip float64) []float64 {
		q := newQuad([]float64{10, 3}, []float64{0, 0})
		d, err := New(q, []Head{HeadFunc{W: 1, F: func(int) (float64, error) { return q.loss(), nil }}},
			nil, opt.NewAdam(1, 0), nil, Config{Epochs: epochs, GradClip: clip})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return q.GroupSet[0].Value
	}

	p := []float64{10, 3}
	ref := opt.NewAdam(1, 0)
	for e := 0; e < epochs; e++ {
		g := []float64{2 * p[0], 2 * p[1]}
		opt.ClipGradNorm(1, g)
		ref.Step("p", p, g)
	}
	clipped, unclipped := run(1), run(0)
	for i := range p {
		if clipped[i] != p[i] {
			t.Fatalf("clipped run ended at %v, hand-rolled at %v", clipped, p)
		}
	}
	if clipped[0] == unclipped[0] && clipped[1] == unclipped[1] {
		t.Fatal("clipping left the trajectory unchanged")
	}
}

func TestNewRejectsBadComposition(t *testing.T) {
	q := newQuad([]float64{1}, []float64{0})
	head := []Head{HeadFunc{W: 1, F: func(int) (float64, error) { return 0, nil }}}
	mb := &MiniBatch{
		Examples:  func(int, *rand.Rand) ([]tensor.Entry, error) { return nil, nil },
		Step:      func(tensor.Entry) float64 { return 0 },
		BatchSize: 1,
	}
	adam := opt.NewAdam(0.1, 0)
	cases := []struct {
		name string
		fn   func() (*Driver, error)
	}{
		{"no objective", func() (*Driver, error) { return New(q, nil, nil, adam, nil, Config{Epochs: 1}) }},
		{"both objectives", func() (*Driver, error) { return New(q, head, mb, adam, NewRNG(1), Config{Epochs: 1}) }},
		{"nil model", func() (*Driver, error) { return New(nil, head, nil, adam, nil, Config{Epochs: 1}) }},
		{"nil optimizer", func() (*Driver, error) { return New(q, head, nil, nil, nil, Config{Epochs: 1}) }},
		{"negative epochs", func() (*Driver, error) { return New(q, head, nil, adam, nil, Config{Epochs: -1}) }},
		{"batch without rng", func() (*Driver, error) { return New(q, nil, mb, adam, nil, Config{Epochs: 1}) }},
		{"batch with clip", func() (*Driver, error) {
			return New(q, nil, mb, adam, NewRNG(1), Config{Epochs: 1, GradClip: 1})
		}},
		{"zero batch size", func() (*Driver, error) {
			return New(q, nil, &MiniBatch{Examples: mb.Examples, Step: mb.Step}, adam, NewRNG(1), Config{Epochs: 1})
		}},
		{"duplicate group", func() (*Driver, error) {
			dup := GroupSet{q.GroupSet[0], q.GroupSet[0]}
			return New(dup, head, nil, adam, nil, Config{Epochs: 1})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s: New accepted an invalid composition", tc.name)
		}
	}
}

// miniModel is a one-group linear model trained by per-example SGD, small
// enough to compare the engine sweep against a hand-rolled loop bit for bit.
type miniModel struct {
	GroupSet
}

func newMiniModel() *miniModel {
	return &miniModel{GroupSet{{Name: "w", Value: make([]float64, 3), Grad: make([]float64, 3)}}}
}

func (m *miniModel) step(e tensor.Entry) float64 {
	w, g := m.GroupSet[0].Value, m.GroupSet[0].Grad
	pred := w[0]*float64(e.I) + w[1]*float64(e.J) + w[2]*float64(e.K)
	d := pred - e.Val
	g[0] += 2 * d * float64(e.I)
	g[1] += 2 * d * float64(e.J)
	g[2] += 2 * d * float64(e.K)
	return d * d
}

func syntheticExamples(rng *rand.Rand, n int) []tensor.Entry {
	out := make([]tensor.Entry, n)
	for i := range out {
		e := tensor.Entry{I: rng.Intn(5), J: rng.Intn(5), K: rng.Intn(5)}
		e.Val = 0.3*float64(e.I) - 0.2*float64(e.J) + 0.1*float64(e.K)
		out[i] = e
	}
	return out
}

// TestMiniBatchMatchesHandRolledLoop runs the engine's mini-batch sweep and
// the exact loop the baselines used to hand-roll, and demands bit-identical
// parameters — the property that kept the baseline goldens unchanged.
func TestMiniBatchMatchesHandRolledLoop(t *testing.T) {
	const epochs, batchSize = 3, 4

	// Hand-rolled reference, as the pre-engine baselines wrote it.
	ref := newMiniModel()
	refRNG := rand.New(rand.NewSource(5))
	refOpt := opt.NewAdam(0.05, 0)
	for epoch := 0; epoch < epochs; epoch++ {
		batch := syntheticExamples(refRNG, 13)
		refRNG.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		for s, e := range batch {
			ref.step(e)
			if (s+1)%batchSize == 0 || s == len(batch)-1 {
				g := ref.GroupSet[0]
				refOpt.Step(g.Name, g.Value, g.Grad)
				for i := range g.Grad {
					g.Grad[i] = 0
				}
			}
		}
	}

	m := newMiniModel()
	d, err := New(m, nil, &MiniBatch{
		Examples:  func(_ int, rng *rand.Rand) ([]tensor.Entry, error) { return syntheticExamples(rng, 13), nil },
		Step:      m.step,
		BatchSize: batchSize,
	}, opt.NewAdam(0.05, 0), NewRNG(5), Config{Epochs: epochs})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range ref.GroupSet[0].Value {
		if ref.GroupSet[0].Value[i] != m.GroupSet[0].Value[i] {
			t.Fatalf("engine diverged from hand-rolled loop at w[%d]: %v vs %v",
				i, m.GroupSet[0].Value, ref.GroupSet[0].Value)
		}
	}
}

// TestRestoreRejectsEpochBeyondRun refuses a state from past the configured
// run's end.
func TestRestoreRejectsEpochBeyondRun(t *testing.T) {
	short, err := New(newMiniModel(), []Head{HeadFunc{W: 1, F: func(int) (float64, error) { return 0, nil }}},
		nil, opt.NewAdam(0.1, 0), NewRNG(1), Config{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Restore(State{Epoch: 7, Opt: opt.State{Algo: "adam"}}, 0); err == nil {
		t.Fatal("epoch beyond run must be rejected")
	}
}

// TestCheckpointCadence counts Save invocations: every CheckpointEvery
// epochs plus the final epoch, without double-saving when they coincide.
func TestCheckpointCadence(t *testing.T) {
	var saves []int
	q := newQuad([]float64{1}, []float64{0})
	d, err := New(q, []Head{HeadFunc{W: 1, F: func(int) (float64, error) { return q.loss(), nil }}},
		nil, opt.NewAdam(0.1, 0), nil, Config{
			Epochs:          5,
			CheckpointEvery: 2,
			Save:            func(st State) error { saves = append(saves, st.Epoch); return nil },
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 5}
	if len(saves) != len(want) {
		t.Fatalf("saves at %v, want %v", saves, want)
	}
	for i := range want {
		if saves[i] != want[i] {
			t.Fatalf("saves at %v, want %v", saves, want)
		}
	}
}
