package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestSetAtHas(t *testing.T) {
	x := NewCOO(3, 4, 5)
	x.Set(1, 2, 3, 2.5)
	if got := x.At(1, 2, 3); got != 2.5 {
		t.Fatalf("At = %g, want 2.5", got)
	}
	if !x.Has(1, 2, 3) || x.Has(0, 0, 0) {
		t.Fatal("Has wrong")
	}
	if x.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", x.NNZ())
	}
	x.Set(1, 2, 3, 1.0) // overwrite
	if x.At(1, 2, 3) != 1.0 || x.NNZ() != 1 {
		t.Fatal("overwrite must not duplicate")
	}
}

func TestSetZeroRemoves(t *testing.T) {
	x := NewCOO(2, 2, 2)
	x.Set(0, 0, 0, 1)
	x.Set(1, 1, 1, 2)
	x.Set(0, 0, 0, 0)
	if x.Has(0, 0, 0) || x.NNZ() != 1 {
		t.Fatal("setting zero must remove the entry")
	}
	// The swapped-in entry must still be addressable.
	if x.At(1, 1, 1) != 2 {
		t.Fatal("swap-remove corrupted the index")
	}
}

func TestAddAccumulates(t *testing.T) {
	x := NewCOO(2, 2, 2)
	x.Add(0, 1, 0, 1)
	x.Add(0, 1, 0, 2)
	if got := x.At(0, 1, 0); got != 3 {
		t.Fatalf("Add accumulation = %g, want 3", got)
	}
	x.Add(0, 1, 0, -3)
	if x.Has(0, 1, 0) {
		t.Fatal("Add to zero must remove the entry")
	}
}

func TestBoundsPanic(t *testing.T) {
	x := NewCOO(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access must panic")
		}
	}()
	x.At(2, 0, 0)
}

func TestDensitySize(t *testing.T) {
	x := NewCOO(2, 5, 10)
	if x.Size() != 100 {
		t.Fatalf("Size = %d", x.Size())
	}
	x.Set(0, 0, 0, 1)
	x.Set(1, 4, 9, 1)
	if math.Abs(x.Density()-0.02) > 1e-15 {
		t.Fatalf("Density = %g", x.Density())
	}
}

func TestCloneIndependence(t *testing.T) {
	x := NewCOO(2, 2, 2)
	x.Set(0, 0, 0, 1)
	y := x.Clone()
	y.Set(0, 0, 0, 9)
	y.Set(1, 1, 1, 5)
	if x.At(0, 0, 0) != 1 || x.NNZ() != 1 {
		t.Fatal("Clone must be independent of the original")
	}
}

func TestSplitPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := NewCOO(10, 10, 4)
	for n := 0; n < 120; n++ {
		x.Set(rng.Intn(10), rng.Intn(10), rng.Intn(4), 1)
	}
	train, test := x.Split(0.8, rand.New(rand.NewSource(2)))
	if train.NNZ()+len(test) != x.NNZ() {
		t.Fatalf("split not a partition: %d + %d != %d", train.NNZ(), len(test), x.NNZ())
	}
	wantTrain := int(0.8 * float64(x.NNZ()))
	if train.NNZ() != wantTrain {
		t.Fatalf("train size = %d, want %d", train.NNZ(), wantTrain)
	}
	// No test entry may appear in train.
	for _, e := range test {
		if train.Has(e.I, e.J, e.K) {
			t.Fatal("test entry leaked into train")
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	x := NewCOO(5, 5, 2)
	for i := 0; i < 5; i++ {
		x.Set(i, i, 0, 1)
	}
	a, _ := x.Split(0.6, rand.New(rand.NewSource(7)))
	b, _ := x.Split(0.6, rand.New(rand.NewSource(7)))
	for _, e := range a.Entries() {
		if !b.Has(e.I, e.J, e.K) {
			t.Fatal("same seed must give same split")
		}
	}
}

func TestSortedEntries(t *testing.T) {
	x := NewCOO(3, 3, 3)
	x.Set(2, 0, 0, 1)
	x.Set(0, 1, 2, 1)
	x.Set(0, 1, 1, 1)
	got := x.SortedEntries()
	if got[0].I != 0 || got[0].K != 1 || got[2].I != 2 {
		t.Fatalf("SortedEntries wrong order: %v", got)
	}
}

func TestFrobNormSq(t *testing.T) {
	x := NewCOO(2, 2, 1)
	x.Set(0, 0, 0, 3)
	x.Set(1, 1, 0, 4)
	if got := x.FrobNormSq(); got != 25 {
		t.Fatalf("FrobNormSq = %g, want 25", got)
	}
}
