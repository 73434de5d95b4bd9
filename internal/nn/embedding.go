package nn

import (
	"fmt"
	"math/rand"
)

// Embedding is a lookup table mapping integer ids to dense vectors, the
// standard first layer of the neural recommenders (NCF's one-hot-to-embedding
// layer is exactly this). Gradients are accumulated densely, which is fine at
// the table sizes of this reproduction.
type Embedding struct {
	N, Dim int
	W      []float64 // row-major N×Dim
	GradW  []float64
	name   string
}

// NewEmbedding returns an N-by-dim table initialized with small Gaussian
// noise.
func NewEmbedding(name string, n, dim int, rng *rand.Rand) *Embedding {
	if n <= 0 || dim <= 0 {
		panic(fmt.Sprintf("nn: Embedding %q invalid dims %dx%d", name, n, dim))
	}
	e := &Embedding{N: n, Dim: dim, W: make([]float64, n*dim), GradW: make([]float64, n*dim), name: name}
	for i := range e.W {
		e.W[i] = rng.NormFloat64() * 0.1
	}
	return e
}

// Lookup returns the embedding vector of id as a view into the table. Callers
// must not modify it; copy first if mutation is needed.
func (e *Embedding) Lookup(id int) []float64 {
	if id < 0 || id >= e.N {
		panic(fmt.Sprintf("nn: Embedding %q id %d out of range [0,%d)", e.name, id, e.N))
	}
	return e.W[id*e.Dim : (id+1)*e.Dim]
}

// Accumulate adds the gradient d to the row of id.
func (e *Embedding) Accumulate(id int, d []float64) {
	row := e.GradW[id*e.Dim : (id+1)*e.Dim]
	for i, v := range d {
		row[i] += v
	}
}

// Params implements Layer.
func (e *Embedding) Params() []Param {
	return []Param{{Name: e.name + ".W", Value: e.W, Grad: e.GradW}}
}

// ZeroGrad implements Layer.
func (e *Embedding) ZeroGrad() { zero(e.GradW) }

// Forward implements Layer for the degenerate single-id case where the input
// is a one-element slice holding the id; prefer Lookup in model code.
func (e *Embedding) Forward(x []float64) []float64 {
	out := make([]float64, e.Dim)
	copy(out, e.Lookup(int(x[0])))
	return out
}

// Backward implements Layer for the Forward above.
func (e *Embedding) Backward(x, dOut []float64) []float64 {
	e.Accumulate(int(x[0]), dOut)
	return []float64{0}
}

// OutDim implements Layer.
func (e *Embedding) OutDim(int) int { return e.Dim }
