package mat

import (
	"fmt"
	"math"
)

// AdamStep applies one Adam update with decoupled weight decay (AdamW) to
// every parameter, in place: for each i, with g = grads[i] and β1, β2 the
// arguments beta1, beta2,
//
//	m[i] = β1·m[i] + (1−β1)·g
//	v[i] = β2·v[i] + ((1−β2)·g)·g
//	params[i] −= lr·((m[i]/c1)/(√(v[i]/c2) + eps) + wd·params[i])
//
// c1 and c2 are the step's bias corrections 1 − β1ᵗ and 1 − β2ᵗ. The four
// slices must have one length; AdamStep panics before writing anything when
// they do not.
//
// On amd64 with AVX2 the leading multiple of four parameters go through an
// assembly body that computes four per register with the same bits: every
// product and quotient rounded on its own (no FMA, no reciprocal for a
// division), in adamStepGo's order. The rest, and every parameter on other
// platforms, take adamStepGo.
func AdamStep(params, grads, m, v []float64, beta1, beta2, c1, c2, lr, eps, wd float64) {
	n := len(params)
	if len(grads) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("mat: AdamStep lengths params %d, grads %d, m %d, v %d", n, len(grads), len(m), len(v)))
	}
	done := 0
	if n >= 4 {
		done = adamStepAccel(params, grads, m, v, beta1, beta2, c1, c2, lr, eps, wd)
	}
	adamStepGo(params[done:], grads[done:], m[done:], v[done:], beta1, beta2, c1, c2, lr, eps, wd)
}

// adamStepGo is AdamStep's reference body, whose bits the assembly body
// must reproduce.
func adamStepGo(params, grads, m, v []float64, beta1, beta2, c1, c2, lr, eps, wd float64) {
	for i, g := range grads {
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mHat := m[i] / c1
		vHat := v[i] / c2
		params[i] -= lr * (mHat/(math.Sqrt(vHat)+eps) + wd*params[i])
	}
}
