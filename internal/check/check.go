// Package check is the repository's differential correctness harness. It
// provides three reusable verification layers that every gradient-trained
// head and every future performance refactor run under:
//
//   - Gradients: a central-difference gradient checker that perturbs every
//     element of every parameter group of a loss closure and reports the
//     maximum relative error with per-tensor attribution. The TCSS loss heads
//     (WholeDataLoss, NegSamplingLoss, Hausdorff.LossWorkers), every internal/nn
//     layer, and the gradient-trained baselines are wired against it in their
//     packages' gradcheck tests.
//
//   - Golden: a golden-run framework that records loss/metric trajectories of
//     short deterministic training runs into testdata/golden/*.json and
//     compares later runs against them with a relative tolerance, so any
//     refactor that changes training math fails loudly. Re-record with
//     `go test ./internal/check -update`.
//
//   - Fuzzed invariants: native Go fuzz targets (FuzzCOOInvariants,
//     FuzzScoreSlabVsPredict, FuzzHausdorffSymmetry) asserting algebraic
//     invariants on randomized shapes.
//
// The checker deliberately lives in a plain library package so tests in
// internal/core, internal/nn and internal/baselines can share one
// implementation instead of each hand-rolling finite differences.
package check

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// Param is one named flat parameter group with its gradient accumulator,
// mirroring nn.Param and the factor/weight slices of core.Grads. Value and
// Grad must be index-aligned and equally long.
type Param struct {
	Name  string
	Value []float64
	Grad  []float64
}

// LossFn computes the scalar loss at the CURRENT parameter values and leaves
// the full analytic gradient in the Grad slices of the checked Params. The
// implementation must zero (or overwrite) its own gradient accumulators on
// every call; the checker calls it once per perturbed element, ignoring the
// gradients it produces during the numerical passes.
type LossFn func() float64

// Options tunes the checker. The zero value selects the defaults.
type Options struct {
	// Eps is the central-difference step (default 1e-5): large enough that
	// the O(ulp(loss)/eps) cancellation noise stays below the tolerance,
	// small enough that the O(eps²) truncation term does too.
	Eps float64
	// RelTol is the failure threshold for Assert (default 1e-6).
	RelTol float64
	// Scale is the denominator floor of the relative error
	// |a−n| / (Scale + |a| + |n|) (default 1). It keeps noise in
	// near-zero gradients from registering as large relative errors, the
	// same convention as the loss heads' hand-written spot checks.
	Scale float64
	// MaxPerParam caps how many elements of each parameter group are
	// perturbed (0 = all). When a group is larger, elements are chosen by a
	// deterministic splitmix64 stride so repeated runs check the same set.
	MaxPerParam int
	// Seed drives the deterministic subsampling (only used when
	// MaxPerParam truncates a group).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 1e-5
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-6
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// ElementError is the checker's verdict on one parameter element.
type ElementError struct {
	Param             string
	Index             int
	Analytic, Numeric float64
	RelErr            float64
}

func (e ElementError) String() string {
	return fmt.Sprintf("%s[%d]: analytic %.12g, numeric %.12g, rel-err %.3g",
		e.Param, e.Index, e.Analytic, e.Numeric, e.RelErr)
}

// ParamReport aggregates the errors of one parameter group.
type ParamReport struct {
	Name      string
	Checked   int // elements perturbed (≤ len(Value))
	MaxRelErr float64
	Worst     ElementError
}

// Result is the outcome of one Gradients run, with per-tensor attribution.
type Result struct {
	Reports []ParamReport
	Loss    float64 // loss at the unperturbed parameters
}

// MaxRelErr returns the largest relative error across all parameter groups.
func (r Result) MaxRelErr() float64 {
	var worst float64
	for _, p := range r.Reports {
		if p.MaxRelErr > worst {
			worst = p.MaxRelErr
		}
	}
	return worst
}

// Worst returns the single worst element across all groups.
func (r Result) Worst() ElementError {
	var w ElementError
	for _, p := range r.Reports {
		if p.MaxRelErr >= w.RelErr {
			w = p.Worst
		}
	}
	return w
}

// String renders the per-tensor attribution table, worst group first.
func (r Result) String() string {
	reports := append([]ParamReport(nil), r.Reports...)
	sort.SliceStable(reports, func(a, b int) bool { return reports[a].MaxRelErr > reports[b].MaxRelErr })
	var b strings.Builder
	fmt.Fprintf(&b, "gradient check: loss %.12g, max rel-err %.3g\n", r.Loss, r.MaxRelErr())
	for _, p := range reports {
		fmt.Fprintf(&b, "  %-20s checked %4d  max rel-err %.3g  (worst %s)\n",
			p.Name, p.Checked, p.MaxRelErr, p.Worst)
	}
	return b.String()
}

// splitmix64 advances the subsampling stream; the same finalizer eval's
// per-entry RNG uses.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// sampleIndices returns the element indices of one group to perturb: all of
// them when max is 0 or covers the group, otherwise max distinct indices
// drawn deterministically from (seed, group name).
func sampleIndices(n, max int, seed int64, name string) []int {
	if max <= 0 || max >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	state := uint64(seed)
	for _, c := range name {
		state = splitmix64(state + uint64(c))
	}
	picked := make(map[int]struct{}, max)
	idx := make([]int, 0, max)
	for len(idx) < max {
		state = splitmix64(state + 0x9E3779B97F4A7C15)
		i := int(state % uint64(n))
		if _, ok := picked[i]; ok {
			continue
		}
		picked[i] = struct{}{}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Gradients verifies the analytic gradient of f against central differences.
// It calls f once to capture the analytic gradient, then for every checked
// element v of every parameter group evaluates f at v±Eps (restoring the
// exact original bits afterwards) and compares (f(v+ε)−f(v−ε))/2ε against the
// captured analytic value. The relative error of one element is
//
//	|analytic − numeric| / (Scale + |analytic| + |numeric|)
//
// so groups whose true gradient is zero are held to an absolute Scale·RelTol
// bound instead of an ill-posed ratio.
func Gradients(f LossFn, params []Param, opts Options) Result {
	opts = opts.withDefaults()
	for _, p := range params {
		if len(p.Value) != len(p.Grad) {
			panic(fmt.Sprintf("check: param %q value/grad length mismatch %d vs %d", p.Name, len(p.Value), len(p.Grad)))
		}
	}
	res := Result{Loss: f()}
	analytic := make([][]float64, len(params))
	for pi, p := range params {
		analytic[pi] = append([]float64(nil), p.Grad...)
	}
	for pi, p := range params {
		report := ParamReport{Name: p.Name, Worst: ElementError{Param: p.Name}}
		for _, i := range sampleIndices(len(p.Value), opts.MaxPerParam, opts.Seed, p.Name) {
			orig := p.Value[i]
			p.Value[i] = orig + opts.Eps
			fp := f()
			p.Value[i] = orig - opts.Eps
			fm := f()
			p.Value[i] = orig
			numeric := (fp - fm) / (2 * opts.Eps)
			a := analytic[pi][i]
			relErr := math.Abs(a-numeric) / (opts.Scale + math.Abs(a) + math.Abs(numeric))
			if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(numeric) || math.IsInf(numeric, 0) {
				relErr = math.Inf(1)
			}
			report.Checked++
			if relErr >= report.MaxRelErr {
				report.MaxRelErr = relErr
				report.Worst = ElementError{Param: p.Name, Index: i, Analytic: a, Numeric: numeric, RelErr: relErr}
			}
		}
		res.Reports = append(res.Reports, report)
	}
	// Leave the Grad slices holding the analytic gradient of the unperturbed
	// point, not whatever the last finite-difference call produced.
	for pi, p := range params {
		copy(p.Grad, analytic[pi])
	}
	return res
}

// Assert runs Gradients and fails the test with the full attribution table
// when the maximum relative error exceeds Options.RelTol. It returns the
// result for further inspection.
func Assert(t testing.TB, f LossFn, params []Param, opts Options) Result {
	t.Helper()
	opts = opts.withDefaults()
	res := Gradients(f, params, opts)
	if res.MaxRelErr() > opts.RelTol {
		t.Errorf("gradient check failed (rel-tol %.3g):\n%s", opts.RelTol, res)
	}
	return res
}
