// Package opt implements the one optimizer every gradient-trained model in
// this repository uses: Adam with decoupled weight decay (AdamW) at a fixed
// learning rate. Parameters are flat float64 slices grouped by name; the
// optimizer keeps per-group moment state keyed on the group name, so the
// caller just calls Step with the same names every iteration.
package opt

import (
	"fmt"
	"math"
)

// State is the serializable moment state of Adam, keyed by parameter group
// name: per-group step counts and first/second moments. The hyperparameters
// (learning rate, betas, decay) are not part of the state — they belong to
// the training configuration, which a resumed run must supply unchanged.
type State struct {
	// Algo names the algorithm that produced the state ("adam"); Import
	// rejects any other so a checkpoint cannot silently resume under a
	// different update rule.
	Algo  string               `json:"algo"`
	Steps map[string]int       `json:"steps,omitempty"`
	M     map[string][]float64 `json:"m,omitempty"`
	V     map[string][]float64 `json:"v,omitempty"`
}

func copyFloats(src map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(src))
	for k, v := range src {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

func copyInts(src map[string]int) map[string]int {
	out := make(map[string]int, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// Adam implements the Adam optimizer with decoupled weight decay (AdamW).
// The paper trains with Adam, lr = 0.001 and weight decay 0.1 (§V-D);
// core.DefaultConfig gives the full-batch equivalent.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	steps map[string]int
	m     map[string][]float64
	v     map[string][]float64
}

// NewAdam returns an Adam optimizer with the standard betas (0.9, 0.999).
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		steps: make(map[string]int),
		m:     make(map[string][]float64),
		v:     make(map[string][]float64),
	}
}

// Step applies one Adam update with bias correction and decoupled decay.
func (a *Adam) Step(name string, params, grads []float64) {
	checkLens(name, params, grads)
	m, v := a.m[name], a.v[name]
	if m == nil {
		m = make([]float64, len(params))
		v = make([]float64, len(params))
		a.m[name], a.v[name] = m, v
	}
	a.steps[name]++
	t := float64(a.steps[name])
	c1 := 1 - math.Pow(a.Beta1, t)
	c2 := 1 - math.Pow(a.Beta2, t)
	for i, g := range grads {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mHat := m[i] / c1
		vHat := v[i] / c2
		params[i] -= a.LR * (mHat/(math.Sqrt(vHat)+a.Eps) + a.WeightDecay*params[i])
	}
}

// Export returns a deep copy of the per-group step counts and
// first/second moments, sufficient to continue a run bit-identically.
func (a *Adam) Export() State {
	return State{Algo: "adam", Steps: copyInts(a.steps), M: copyFloats(a.m), V: copyFloats(a.v)}
}

// Import replaces the moment state with a deep copy of st.
func (a *Adam) Import(st State) error {
	if st.Algo != "adam" {
		return fmt.Errorf("opt: cannot import %q state into Adam", st.Algo)
	}
	for name := range st.M {
		if len(st.M[name]) != len(st.V[name]) {
			return fmt.Errorf("opt: Adam state group %q has m/v length mismatch %d vs %d",
				name, len(st.M[name]), len(st.V[name]))
		}
	}
	a.steps = copyInts(st.Steps)
	a.m = copyFloats(st.M)
	a.v = copyFloats(st.V)
	return nil
}

func checkLens(name string, params, grads []float64) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("opt: group %q params/grads length mismatch %d vs %d", name, len(params), len(grads)))
	}
}
