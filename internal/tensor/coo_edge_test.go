package tensor

import (
	"math/rand"
	"testing"
)

// TestCOOEdgeCases table-drives the boundary behaviours of the sparse store:
// empty tensors, single entries, duplicate-index writes, zero-deletes and the
// Scale compaction invariant (stored entries are always nonzero).
func TestCOOEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *COO
		wantNNZ int
		wantAt  map[[3]int]float64
	}{
		{
			name:    "empty",
			build:   func() *COO { return NewCOO(3, 4, 2) },
			wantNNZ: 0,
			wantAt:  map[[3]int]float64{{0, 0, 0}: 0, {2, 3, 1}: 0},
		},
		{
			name: "single-entry",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Set(1, 2, 1, 0.5)
				return x
			},
			wantNNZ: 1,
			wantAt:  map[[3]int]float64{{1, 2, 1}: 0.5, {1, 2, 0}: 0},
		},
		{
			name: "duplicate-set-overwrites",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Set(1, 2, 1, 0.5)
				x.Set(1, 2, 1, 2.5)
				return x
			},
			wantNNZ: 1,
			wantAt:  map[[3]int]float64{{1, 2, 1}: 2.5},
		},
		{
			name: "duplicate-add-accumulates",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Add(1, 2, 1, 0.5)
				x.Add(1, 2, 1, 0.25)
				return x
			},
			wantNNZ: 1,
			wantAt:  map[[3]int]float64{{1, 2, 1}: 0.75},
		},
		{
			name: "set-zero-deletes",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Set(1, 2, 1, 0.5)
				x.Set(0, 0, 0, 1)
				x.Set(1, 2, 1, 0)
				return x
			},
			wantNNZ: 1,
			wantAt:  map[[3]int]float64{{1, 2, 1}: 0, {0, 0, 0}: 1},
		},
		{
			name: "add-to-zero-deletes",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Add(1, 2, 1, 0.5)
				x.Add(1, 2, 1, -0.5)
				return x
			},
			wantNNZ: 0,
			wantAt:  map[[3]int]float64{{1, 2, 1}: 0},
		},
		{
			name: "scale-zero-compacts",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Set(1, 2, 1, 0.5)
				x.Set(0, 1, 0, 2)
				x.Scale(0)
				return x
			},
			wantNNZ: 0,
			wantAt:  map[[3]int]float64{{1, 2, 1}: 0, {0, 1, 0}: 0},
		},
		{
			name: "scale-nonzero-keeps-support",
			build: func() *COO {
				x := NewCOO(3, 4, 2)
				x.Set(1, 2, 1, 0.5)
				x.Set(0, 1, 0, 2)
				x.Scale(-2)
				return x
			},
			wantNNZ: 2,
			wantAt:  map[[3]int]float64{{1, 2, 1}: -1, {0, 1, 0}: -4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := tc.build()
			if x.NNZ() != tc.wantNNZ {
				t.Fatalf("NNZ = %d, want %d", x.NNZ(), tc.wantNNZ)
			}
			if len(x.Entries()) != tc.wantNNZ {
				t.Fatalf("len(Entries) = %d, want %d", len(x.Entries()), tc.wantNNZ)
			}
			for key, want := range tc.wantAt {
				if got := x.At(key[0], key[1], key[2]); got != want {
					t.Fatalf("At(%v) = %g, want %g", key, got, want)
				}
				if has, wantHas := x.Has(key[0], key[1], key[2]), want != 0; has != wantHas {
					t.Fatalf("Has(%v) = %v, want %v", key, has, wantHas)
				}
			}
			// The index must stay consistent after the edits: every stored
			// entry resolves to itself.
			for _, e := range x.Entries() {
				if got := x.At(e.I, e.J, e.K); got != e.Val {
					t.Fatalf("index inconsistency at (%d,%d,%d): entry %g, At %g", e.I, e.J, e.K, e.Val, got)
				}
			}
		})
	}
}

// TestCOOScaleCompactionKeepsIndexConsistent is the regression for the Scale
// bug the fuzz harness surfaced: zero-valued entries were left stored, and a
// naive compaction could leave stale index slots aliasing surviving entries.
func TestCOOScaleCompactionKeepsIndexConsistent(t *testing.T) {
	x := NewCOO(4, 4, 4)
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 20; n++ {
		x.Set(rng.Intn(4), rng.Intn(4), rng.Intn(4), float64(rng.Intn(3))) // some zeros ignored by Set
	}
	before := x.NNZ()
	x.Scale(0)
	if x.NNZ() != 0 {
		t.Fatalf("Scale(0) left %d of %d entries stored", x.NNZ(), before)
	}
	// The tensor must remain fully usable afterwards.
	x.Set(1, 1, 1, 3)
	if x.NNZ() != 1 || x.At(1, 1, 1) != 3 {
		t.Fatalf("tensor unusable after Scale(0): NNZ %d, At %g", x.NNZ(), x.At(1, 1, 1))
	}
	if x.At(0, 0, 0) != 0 {
		t.Fatalf("ghost value at (0,0,0): %g", x.At(0, 0, 0))
	}
}

func TestCOOPanicsOnInvalidDims(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCOO(%v) did not panic", dims)
				}
			}()
			NewCOO(dims[0], dims[1], dims[2])
		}()
	}
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
