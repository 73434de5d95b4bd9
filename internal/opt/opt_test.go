package opt

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// quadratic is f(x) = Σ (x_i - target_i)², gradient 2(x - target).
func quadGrad(x, target []float64) []float64 {
	g := make([]float64, len(x))
	for i := range x {
		g[i] = 2 * (x[i] - target[i])
	}
	return g
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := []float64{5, -3}
	target := []float64{1, 2}
	a := NewAdam(0.1, 0)
	for i := 0; i < 1000; i++ {
		a.Step("x", x, quadGrad(x, target))
	}
	for i := range x {
		if math.Abs(x[i]-target[i]) > 1e-3 {
			t.Fatalf("Adam failed to converge: %v", x)
		}
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	// With zero gradient and positive decay, parameters must decay toward 0.
	x := []float64{4}
	a := NewAdam(0.01, 0.5)
	zero := []float64{0}
	for i := 0; i < 100; i++ {
		a.Step("x", x, zero)
	}
	if math.Abs(x[0]) >= 4 {
		t.Fatalf("weight decay did not shrink parameter: %v", x)
	}
}

func TestAdamIndependentGroups(t *testing.T) {
	a := NewAdam(0.1, 0)
	x := []float64{1}
	y := []float64{1, 1}
	a.Step("x", x, []float64{1})
	a.Step("y", y, []float64{1, 1}) // must not collide with group x
	if len(a.m["x"]) != 1 || len(a.m["y"]) != 2 {
		t.Fatal("per-group state sized wrong")
	}
}

func TestStepPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	NewAdam(0.1, 0).Step("x", []float64{1, 2}, []float64{1})
}

// TestAdamStepRejectsShortMoments imports moments shorter than the group
// they are stepped with (Import checks m against v, not against params,
// which it does not see) and checks that Step panics naming the group
// before it writes to the params, the moments or the step count.
func TestAdamStepRejectsShortMoments(t *testing.T) {
	a := NewAdam(0.1, 0.1)
	st := State{Algo: "adam", Steps: map[string]int{"w": 3},
		M: map[string][]float64{"w": {0.5, -0.5}}, V: map[string][]float64{"w": {0.25, 0.25}}}
	if err := a.Import(st); err != nil {
		t.Fatal(err)
	}
	params := []float64{1, 2, 3, 4, 5}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"w"`) {
			t.Fatalf("Step with short moments: panic %q, want one naming group \"w\"", msg)
		}
		if !slices.Equal(params, []float64{1, 2, 3, 4, 5}) {
			t.Fatalf("Step wrote params before panicking: %v", params)
		}
		after := a.Export()
		if !slices.Equal(after.M["w"], st.M["w"]) || !slices.Equal(after.V["w"], st.V["w"]) || after.Steps["w"] != 3 {
			t.Fatalf("Step changed the state before panicking: %+v", after)
		}
	}()
	a.Step("w", params, []float64{1, 1, 1, 1, 1})
}

// TestAdamStateRoundTrip checkpoints an Adam mid-run and verifies that a
// fresh optimizer importing the state continues bit-identically to the
// original, while a run restarted without the state diverges.
func TestAdamStateRoundTrip(t *testing.T) {
	step := func(a *Adam, p, g []float64) {
		for i := range g {
			g[i] = 0.3*p[i] - 0.1
		}
		a.Step("w", p, g)
	}
	p1 := []float64{1, -2, 0.5}
	g := make([]float64, len(p1))
	a1 := NewAdam(0.05, 0.01)
	for i := 0; i < 4; i++ {
		step(a1, p1, g)
	}
	st := a1.Export()

	p2 := append([]float64(nil), p1...)
	a2 := NewAdam(0.05, 0.01)
	if err := a2.Import(st); err != nil {
		t.Fatal(err)
	}
	// Mutating the exported state after import must not alias the optimizer.
	st.M["w"][0] = 999
	pFresh := append([]float64(nil), p1...)
	aFresh := NewAdam(0.05, 0.01)
	for i := 0; i < 3; i++ {
		step(a1, p1, g)
		step(a2, p2, g)
		step(aFresh, pFresh, g)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("imported state diverged at %d: %v vs %v", i, p1, p2)
		}
	}
	same := true
	for i := range p1 {
		if p1[i] != pFresh[i] {
			same = false
		}
	}
	if same {
		t.Fatal("run restarted without moment state should diverge (bias correction restarts)")
	}
}

func TestStateImportRejectsWrongAlgo(t *testing.T) {
	if err := NewAdam(0.1, 0).Import(State{Algo: "sgd"}); err == nil {
		t.Fatal("Adam must reject another algorithm's state")
	}
}
