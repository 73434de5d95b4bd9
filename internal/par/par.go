// Package par is the repository's shared parallel compute layer: a bounded
// worker pool plus sharding and reduction helpers with a strict determinism
// contract.
//
// Determinism contract: every helper splits work into contiguous shards whose
// boundaries depend only on (n, workers), and combines per-shard results in
// ascending shard order on the calling goroutine. Floating-point reductions
// are therefore run-to-run reproducible at a fixed worker count, and integer
// or positional results (ranks, filters, per-index outputs) are bit-for-bit
// identical at ANY worker count. Callers that need float reductions invariant
// across worker counts must reduce per-index (write results into a slice slot
// per item, then sum serially) rather than per-shard; eval.Rank does exactly
// that.
//
// The pool is bounded: at most Workers goroutines execute shards at a time,
// so nested or concurrent calls cannot oversubscribe the scheduler the way
// unbounded go-per-item fan-out does.
package par

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the current GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Clamp normalizes a requested worker count against n items: non-positive
// requests become DefaultWorkers(), and the result never exceeds n (so no
// worker is ever handed an empty shard) and never drops below 1.
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Shard is one contiguous index range [Start, End) assigned to a worker.
// Index is the shard's position in the fixed reduction order.
type Shard struct {
	Index, Start, End int
}

// Shards splits [0, n) into exactly Clamp(workers, n) contiguous ranges whose
// sizes differ by at most one. The boundaries depend only on (n, workers),
// which is what makes ordered reductions reproducible.
func Shards(n, workers int) []Shard {
	if n <= 0 {
		return nil
	}
	w := Clamp(workers, n)
	out := make([]Shard, w)
	for s := 0; s < w; s++ {
		out[s] = Shard{
			Index: s,
			Start: s * n / w,
			End:   (s + 1) * n / w,
		}
	}
	return out
}

// semaphore bounds global concurrency across all Do calls so that nested
// parallelism (e.g. a parallel loss inside a parallel benchmark) degrades to
// sequential execution instead of spawning workers^2 goroutines.
var (
	semOnce sync.Once
	sem     chan struct{}
)

func acquireSlot() { semOnce.Do(initSem); sem <- struct{}{} }
func releaseSlot() { <-sem }

func initSem() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	// 2x headroom: a parent blocked in Do holds no slot, but allow some
	// overlap between draining and starting shards.
	sem = make(chan struct{}, 2*n)
}

// Do executes fn once per shard of [0, n), running up to Clamp(workers, n)
// shards concurrently, and returns when all shards finish. With workers == 1
// (or n == 1) fn runs on the calling goroutine with no synchronization, so
// the serial path is exactly the sharded loop at shard count 1.
func Do(n, workers int, fn func(s Shard)) {
	shards := Shards(n, workers)
	if len(shards) == 0 {
		return
	}
	if len(shards) == 1 {
		fn(shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for _, s := range shards {
		s := s
		go func() {
			defer wg.Done()
			acquireSlot()
			defer releaseSlot()
			fn(s)
		}()
	}
	wg.Wait()
}

// Reduce runs produce once per shard (concurrently) and then folds the
// per-shard results into acc by calling merge in ascending shard order on the
// calling goroutine, so a floating-point reduction (a loss sum, gradient
// shards) is bit-for-bit reproducible at a fixed worker count.
func Reduce[T any](n, workers int, produce func(s Shard) T, merge func(shard T)) {
	shards := Shards(n, workers)
	if len(shards) == 0 {
		return
	}
	results := make([]T, len(shards))
	Do(n, workers, func(s Shard) {
		results[s.Index] = produce(s)
	})
	for _, r := range results {
		merge(r)
	}
}

// Validate reports an error for nonsensical worker requests; helpers accept
// any value via Clamp, so this exists for config surfaces that want to fail
// fast on typos like workers = -8.
func Validate(workers int) error {
	if workers < 0 {
		return fmt.Errorf("par: negative worker count %d", workers)
	}
	return nil
}
