// Package tensor implements sparse order-3 tensors with the algebra the
// paper's models need: MTTKRP (matricized tensor times Khatri-Rao product)
// for ALS sweeps, sparse Gram matrices of unfoldings for the TCSS spectral
// initialization, and train/test splitting of observed entries.
//
// Axis convention follows the paper: mode 1 indexes users (I), mode 2 indexes
// POIs (J), mode 3 indexes time units (K).
package tensor

import (
	"fmt"
	"math/rand"
	"sort"
)

// Entry is one observed cell of a sparse order-3 tensor.
type Entry struct {
	I, J, K int
	Val     float64
}

// COO is a sparse order-3 tensor in coordinate format. Entries are unique per
// (i, j, k); Set folds duplicates by overwriting. The zero COO is unusable;
// construct with NewCOO.
type COO struct {
	DimI, DimJ, DimK int
	entries          []Entry
	index            map[int64]int // key(i,j,k) -> position in entries
}

// NewCOO returns an empty sparse tensor with the given dimensions.
func NewCOO(dimI, dimJ, dimK int) *COO {
	if dimI <= 0 || dimJ <= 0 || dimK <= 0 {
		panic(fmt.Sprintf("tensor: invalid dims %dx%dx%d", dimI, dimJ, dimK))
	}
	return &COO{
		DimI: dimI, DimJ: dimJ, DimK: dimK,
		index: make(map[int64]int),
	}
}

func (t *COO) key(i, j, k int) int64 {
	return (int64(i)*int64(t.DimJ)+int64(j))*int64(t.DimK) + int64(k)
}

func (t *COO) checkBounds(i, j, k int) {
	if i < 0 || i >= t.DimI || j < 0 || j >= t.DimJ || k < 0 || k >= t.DimK {
		panic(fmt.Sprintf("tensor: index (%d,%d,%d) out of bounds %dx%dx%d", i, j, k, t.DimI, t.DimJ, t.DimK))
	}
}

// Set stores value v at (i, j, k), overwriting any previous value. Setting an
// explicit zero removes the entry to keep the structure sparse.
func (t *COO) Set(i, j, k int, v float64) {
	t.checkBounds(i, j, k)
	key := t.key(i, j, k)
	pos, ok := t.index[key]
	if v == 0 {
		if ok {
			last := len(t.entries) - 1
			moved := t.entries[last]
			t.entries[pos] = moved
			t.entries = t.entries[:last]
			if pos != last {
				t.index[t.key(moved.I, moved.J, moved.K)] = pos
			}
			delete(t.index, key)
		}
		return
	}
	if ok {
		t.entries[pos].Val = v
		return
	}
	t.index[key] = len(t.entries)
	t.entries = append(t.entries, Entry{I: i, J: j, K: k, Val: v})
}

// Add accumulates v into entry (i, j, k), creating it if absent.
func (t *COO) Add(i, j, k int, v float64) {
	t.Set(i, j, k, t.At(i, j, k)+v)
}

// At returns the value at (i, j, k), or 0 for an unobserved cell.
func (t *COO) At(i, j, k int) float64 {
	t.checkBounds(i, j, k)
	if pos, ok := t.index[t.key(i, j, k)]; ok {
		return t.entries[pos].Val
	}
	return 0
}

// Has reports whether (i, j, k) is an observed (nonzero) entry.
func (t *COO) Has(i, j, k int) bool {
	t.checkBounds(i, j, k)
	_, ok := t.index[t.key(i, j, k)]
	return ok
}

// NNZ returns the number of stored (nonzero) entries.
func (t *COO) NNZ() int { return len(t.entries) }

// Size returns the total number of cells I*J*K.
func (t *COO) Size() int64 {
	return int64(t.DimI) * int64(t.DimJ) * int64(t.DimK)
}

// Density returns NNZ divided by the total number of cells.
func (t *COO) Density() float64 {
	return float64(t.NNZ()) / float64(t.Size())
}

// Entries returns a read-only view of the stored entries. Callers must not
// mutate the returned slice; use Set/Add instead.
func (t *COO) Entries() []Entry { return t.entries }

// ShardEntries splits entries into at most n contiguous, non-overlapping
// sub-slices that cover the input in order, with shard sizes differing by at
// most one. The sub-slices alias the input — callers must not mutate them —
// which makes the helper suitable for handing one shard to each worker of a
// parallel loss loop. n < 1 is treated as 1; an empty input yields no shards.
func ShardEntries(entries []Entry, n int) [][]Entry {
	total := len(entries)
	if total == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	out := make([][]Entry, n)
	for s := 0; s < n; s++ {
		out[s] = entries[s*total/n : (s+1)*total/n]
	}
	return out
}

// ShardEntries splits the stored entries into at most n contiguous read-only
// views; see the package-level ShardEntries.
func (t *COO) ShardEntries(n int) [][]Entry { return ShardEntries(t.entries, n) }

// Clone returns a deep copy of t.
func (t *COO) Clone() *COO {
	out := NewCOO(t.DimI, t.DimJ, t.DimK)
	out.entries = append(out.entries, t.entries...)
	for k, v := range t.index {
		out.index[k] = v
	}
	return out
}

// Scale multiplies every stored entry by s in place.
func (t *COO) Scale(s float64) {
	for i := range t.entries {
		t.entries[i].Val *= s
	}
	// Preserve the invariant that stored entries are nonzero (Set deletes on
	// zero, Has means "observed nonzero"): scaling by 0 — or underflowing to
	// it — must drop the affected entries, not strand zero-valued ones.
	kept := t.entries[:0]
	for _, e := range t.entries {
		if e.Val != 0 {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(t.entries) {
		return
	}
	t.entries = kept
	t.index = make(map[int64]int, len(kept))
	for pos, e := range t.entries {
		t.index[t.key(e.I, e.J, e.K)] = pos
	}
}

// Split partitions the observed entries into a training tensor and a held-out
// test slice, keeping trainFrac of the entries (at least one) in training.
// The split is deterministic for a given rng. It mirrors the paper's 80/20
// check-in split.
func (t *COO) Split(trainFrac float64, rng *rand.Rand) (*COO, []Entry) {
	if trainFrac <= 0 || trainFrac > 1 {
		panic(fmt.Sprintf("tensor: trainFrac %g out of (0,1]", trainFrac))
	}
	perm := rng.Perm(len(t.entries))
	nTrain := int(trainFrac * float64(len(t.entries)))
	if nTrain < 1 {
		nTrain = 1
	}
	train := NewCOO(t.DimI, t.DimJ, t.DimK)
	var test []Entry
	for pos, idx := range perm {
		e := t.entries[idx]
		if pos < nTrain {
			train.Set(e.I, e.J, e.K, e.Val)
		} else {
			test = append(test, e)
		}
	}
	return train, test
}

// SortedEntries returns a copy of the entries in (i, j, k) lexicographic
// order, useful for deterministic iteration and golden tests.
func (t *COO) SortedEntries() []Entry {
	out := make([]Entry, len(t.entries))
	copy(out, t.entries)
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		if out[a].J != out[b].J {
			return out[a].J < out[b].J
		}
		return out[a].K < out[b].K
	})
	return out
}

// FrobNormSq returns the squared Frobenius norm of the stored entries.
func (t *COO) FrobNormSq() float64 {
	var s float64
	for _, e := range t.entries {
		s += e.Val * e.Val
	}
	return s
}
