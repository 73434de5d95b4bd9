package par

import (
	"sync/atomic"
	"testing"
)

func TestShardsCoverEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 101} {
		for _, w := range []int{0, 1, 2, 3, 8, 200} {
			shards := Shards(n, w)
			seen := make([]int, n)
			prevEnd := 0
			for idx, s := range shards {
				if s.Index != idx {
					t.Fatalf("n=%d w=%d: shard %d has Index %d", n, w, idx, s.Index)
				}
				if s.Start != prevEnd {
					t.Fatalf("n=%d w=%d: shard %d starts at %d, want %d", n, w, idx, s.Start, prevEnd)
				}
				if s.End < s.Start {
					t.Fatalf("n=%d w=%d: shard %d inverted [%d,%d)", n, w, idx, s.Start, s.End)
				}
				for i := s.Start; i < s.End; i++ {
					seen[i]++
				}
				prevEnd = s.End
			}
			if n > 0 && prevEnd != n {
				t.Fatalf("n=%d w=%d: shards end at %d", n, w, prevEnd)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
			if n > 0 && len(shards) > n {
				t.Fatalf("n=%d w=%d: %d shards exceeds n", n, w, len(shards))
			}
		}
	}
}

func TestShardsBalanced(t *testing.T) {
	shards := Shards(10, 3)
	if len(shards) != 3 {
		t.Fatalf("want 3 shards, got %d", len(shards))
	}
	for _, s := range shards {
		size := s.End - s.Start
		if size < 3 || size > 4 {
			t.Fatalf("unbalanced shard %+v", s)
		}
	}
}

func TestDoRunsEveryIndex(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		var count atomic.Int64
		hit := make([]atomic.Bool, 1000)
		Do(1000, w, func(s Shard) {
			for i := s.Start; i < s.End; i++ {
				if hit[i].Swap(true) {
					t.Errorf("w=%d: index %d run twice", w, i)
				}
				count.Add(1)
			}
		})
		if count.Load() != 1000 {
			t.Fatalf("w=%d: ran %d of 1000", w, count.Load())
		}
	}
}

func TestReduceMergesInShardOrder(t *testing.T) {
	var order []int
	Reduce(100, 8, func(s Shard) int { return s.Index }, func(idx int) {
		order = append(order, idx)
	})
	for i, idx := range order {
		if idx != i {
			t.Fatalf("merge order %v not ascending", order)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(0, 10) < 1 {
		t.Fatal("Clamp(0, 10) must be at least 1")
	}
	if got := Clamp(16, 4); got != 4 {
		t.Fatalf("Clamp(16, 4) = %d, want 4", got)
	}
	if got := Clamp(3, 100); got != 3 {
		t.Fatalf("Clamp(3, 100) = %d, want 3", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(-1); err == nil {
		t.Fatal("Validate(-1) must error")
	}
	if err := Validate(0); err != nil {
		t.Fatalf("Validate(0): %v", err)
	}
}
