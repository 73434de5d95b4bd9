package train

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcss/internal/opt"
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
	groups []Group
	target []float64
}

func newQuad(init, target []float64) *quad {
	p := append([]float64(nil), init...)
	g := make([]float64, len(p))
	return &quad{
		groups: []Group{{Name: "p", Value: p, Grad: g}},
		target: target,
	}
}

func (q *quad) loss() float64 {
	var l float64
	p, g := q.groups[0].Value, q.groups[0].Grad
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
	d, err := New(q.groups, []Head{{W: 1, Loss: func(int) (float64, error) { return q.loss(), nil }}},
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
	if d.epoch != 120 {
		t.Fatalf("epoch = %d, want 120", d.epoch)
	}
}

// TestDriverHeadWeights verifies the reported loss is Σ weight·loss.
func TestDriverHeadWeights(t *testing.T) {
	q := newQuad([]float64{1}, []float64{1})
	var got float64
	heads := []Head{
		{W: 1, Loss: func(int) (float64, error) { return 2, nil }},
		{W: 0.5, Loss: func(int) (float64, error) { return 4, nil }},
	}
	d, err := New(q.groups, heads, nil, opt.NewAdam(0, 0), nil, Config{
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

func TestNewRejectsBadComposition(t *testing.T) {
	q := newQuad([]float64{1}, []float64{0})
	head := []Head{{W: 1, Loss: func(int) (float64, error) { return 0, nil }}}
	mb := &MiniBatch{
		Examples:  func(int, *rand.Rand) (int, error) { return 0, nil },
		Step:      func(int) float64 { return 0 },
		BatchSize: 1,
	}
	adam := opt.NewAdam(0.1, 0)
	cases := []struct {
		name string
		fn   func() (*Driver, error)
	}{
		{"no objective", func() (*Driver, error) { return New(q.groups, nil, nil, adam, nil, Config{Epochs: 1}) }},
		{"both objectives", func() (*Driver, error) { return New(q.groups, head, mb, adam, NewRNG(1), Config{Epochs: 1}) }},
		{"no groups", func() (*Driver, error) { return New(nil, head, nil, adam, nil, Config{Epochs: 1}) }},
		{"nil optimizer", func() (*Driver, error) { return New(q.groups, head, nil, nil, nil, Config{Epochs: 1}) }},
		{"negative epochs", func() (*Driver, error) { return New(q.groups, head, nil, adam, nil, Config{Epochs: -1}) }},
		{"batch without rng", func() (*Driver, error) { return New(q.groups, nil, mb, adam, nil, Config{Epochs: 1}) }},
		{"zero batch size", func() (*Driver, error) {
			return New(q.groups, nil, &MiniBatch{Examples: mb.Examples, Step: mb.Step}, adam, NewRNG(1), Config{Epochs: 1})
		}},
		{"duplicate group", func() (*Driver, error) {
			return New([]Group{q.groups[0], q.groups[0]}, head, nil, adam, nil, Config{Epochs: 1})
		}},
		{"group length mismatch", func() (*Driver, error) {
			return New([]Group{{Name: "p", Value: make([]float64, 2), Grad: make([]float64, 1)}}, head, nil, adam, nil, Config{Epochs: 1})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s: New accepted an invalid composition", tc.name)
		}
	}
}

// TestNewZeroesGradients: gradients left in the groups before New do not
// reach the first optimizer step.
func TestNewZeroesGradients(t *testing.T) {
	g := Group{Name: "w", Value: []float64{1}, Grad: []float64{7}}
	if _, err := New([]Group{g}, []Head{{W: 1, Loss: func(int) (float64, error) { return 0, nil }}},
		nil, opt.NewAdam(0.1, 0), nil, Config{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	if g.Grad[0] != 0 {
		t.Fatalf("New left gradient %g in place", g.Grad[0])
	}
}

// example is one labeled point of the toy linear model below.
type example struct {
	i, j, k int
	val     float64
}

// miniModel is a one-group linear model trained by per-example SGD, small
// enough to compare the engine sweep against a hand-rolled loop bit for bit.
type miniModel struct {
	groups []Group
}

func newMiniModel() *miniModel {
	return &miniModel{[]Group{{Name: "w", Value: make([]float64, 3), Grad: make([]float64, 3)}}}
}

func (m *miniModel) step(e example) float64 {
	w, g := m.groups[0].Value, m.groups[0].Grad
	pred := w[0]*float64(e.i) + w[1]*float64(e.j) + w[2]*float64(e.k)
	d := pred - e.val
	g[0] += 2 * d * float64(e.i)
	g[1] += 2 * d * float64(e.j)
	g[2] += 2 * d * float64(e.k)
	return d * d
}

func syntheticExamples(rng *rand.Rand, n int) []example {
	out := make([]example, n)
	for i := range out {
		e := example{i: rng.Intn(5), j: rng.Intn(5), k: rng.Intn(5)}
		e.val = 0.3*float64(e.i) - 0.2*float64(e.j) + 0.1*float64(e.k)
		out[i] = e
	}
	return out
}

// TestMiniBatchMatchesHandRolledLoop runs the engine's mini-batch sweep, with
// Examples sampling and shuffling for itself, against the loop the baselines
// used to hand-roll, and demands bit-identical parameters — the property
// that kept the baseline goldens unchanged.
func TestMiniBatchMatchesHandRolledLoop(t *testing.T) {
	const epochs, batchSize = 3, 4
	shuffle := func(rng *rand.Rand, batch []example) {
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
	}

	// Hand-rolled reference, as the pre-engine baselines wrote it.
	ref := newMiniModel()
	refRNG := rand.New(rand.NewSource(5))
	refOpt := opt.NewAdam(0.05, 0)
	for epoch := 0; epoch < epochs; epoch++ {
		batch := syntheticExamples(refRNG, 13)
		shuffle(refRNG, batch)
		for s, e := range batch {
			ref.step(e)
			if (s+1)%batchSize == 0 || s == len(batch)-1 {
				g := ref.groups[0]
				refOpt.Step(g.Name, g.Value, g.Grad)
				for i := range g.Grad {
					g.Grad[i] = 0
				}
			}
		}
	}

	m := newMiniModel()
	var batch []example
	d, err := New(m.groups, nil, &MiniBatch{
		Examples: func(_ int, rng *rand.Rand) (int, error) {
			batch = syntheticExamples(rng, 13)
			shuffle(rng, batch)
			return len(batch), nil
		},
		Step:      func(i int) float64 { return m.step(batch[i]) },
		BatchSize: batchSize,
	}, opt.NewAdam(0.05, 0), NewRNG(5), Config{Epochs: epochs})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range ref.groups[0].Value {
		if ref.groups[0].Value[i] != m.groups[0].Value[i] {
			t.Fatalf("engine diverged from hand-rolled loop at w[%d]: %v vs %v",
				i, m.groups[0].Value, ref.groups[0].Value)
		}
	}
}

// TestMiniBatchKeepsExampleOrder: Step sees the examples in the order
// Examples laid them out, the optimizer steps after every BatchSize-th
// example and after the last, and the engine draws nothing from the RNG
// beyond what Examples draws.
func TestMiniBatchKeepsExampleOrder(t *testing.T) {
	for _, tc := range []struct {
		n, batchSize int
		epoch        string // one epoch's trace: s<i> per Step, | per optimizer step, / at its end
	}{
		{7, 3, "s0 s1 s2 | s3 s4 s5 | s6 | /"},
		{6, 3, "s0 s1 s2 | s3 s4 s5 | /"},
		{3, 1, "s0 | s1 | s2 | /"},
		{2, 5, "s0 s1 | /"},
		{0, 2, "/"},
	} {
		// Every Step leaves a unit gradient, so each optimizer step moves w;
		// the trace notes a step wherever w moved since the last event.
		g := Group{Name: "w", Value: []float64{0}, Grad: []float64{0}}
		var trace []string
		last := g.Value[0]
		event := func(e string) {
			if g.Value[0] != last {
				trace, last = append(trace, "|"), g.Value[0]
			}
			trace = append(trace, e)
		}
		rng := NewRNG(9)
		var draws []uint64
		d, err := New([]Group{g}, nil, &MiniBatch{
			Examples: func(_ int, r *rand.Rand) (int, error) {
				r.Int63()
				draws = append(draws, rng.State().Draws)
				return tc.n, nil
			},
			Step: func(i int) float64 {
				event(fmt.Sprintf("s%d", i))
				g.Grad[0] = 1
				return 0
			},
			BatchSize: tc.batchSize,
		}, opt.NewAdam(0.1, 0), rng, Config{Epochs: 2, Callback: func(int, float64) { event("/") }})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(trace, " "), tc.epoch+" "+tc.epoch; got != want {
			t.Errorf("n=%d batch=%d: trace %q, want %q", tc.n, tc.batchSize, got, want)
		}
		if len(draws) != 2 || draws[0] != 1 || draws[1] != 2 || rng.State().Draws != 2 {
			t.Errorf("n=%d batch=%d: draws after each Examples %v, %d in all; want [1 2], 2", tc.n, tc.batchSize, draws, rng.State().Draws)
		}
	}
}

// TestRestoreRejectsEpochBeyondRun refuses a state from past the configured
// run's end.
func TestRestoreRejectsEpochBeyondRun(t *testing.T) {
	short, err := New(newMiniModel().groups, []Head{{W: 1, Loss: func(int) (float64, error) { return 0, nil }}},
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
	d, err := New(q.groups, []Head{{W: 1, Loss: func(int) (float64, error) { return q.loss(), nil }}},
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
