package serve

import (
	"runtime"
	"sync"
	"time"

	"tcss/internal/core"
)

// coalescer batches concurrent recommend requests through core.TopNBatch so a
// batch of B requests streams the POI factor slab once instead of B times.
//
// Protocol: a request joins the pending batch (creating it, and arming its
// window timer, if none exists). The batch executes exactly once — flushed
// by the request that fills it to maxBatch, by the leader's group-commit
// loop once the batch stops growing, or by the timer after window — against
// the snapshot loaded at execution time. Each member's skip list is resolved
// from that same snapshot, so every response in the batch is internally
// consistent with exactly one generation, the one it reports — the same
// contract the per-request path gives. The `flushed` flag, guarded by mu,
// detaches the batch exactly once; joiners then wait on done, which the
// executor closes after publishing results (the channel close orders the
// result writes before the waiters' reads).
//
// The group-commit loop is what makes the latency cost negligible: the
// request that creates a batch (the leader) yields the processor and
// re-checks; while concurrently admitted requests keep joining it keeps
// yielding, and once the batch stops growing AND an execution slot is free
// it flushes. A lone request on an idle server therefore pays a couple of
// scheduler yields, not the window. Execution slots (GOMAXPROCS of them)
// are the convoy mechanism: while every slot is busy scoring, the pending
// batch keeps accumulating, so the batch size self-regulates to however
// many requests arrive during one batch service time — batching emerges
// exactly when there is queued load, without ever delaying an uncontended
// request. The timer is only a starvation backstop (a descheduled leader),
// which is why the default window can stay small.
//
// Execution is safe against generation swaps between join and flush because
// model dimensions only ever grow (open-world observes append rows, never
// remove them): user and time indices validated by the handler stay in range
// for every later snapshot.
//
// There is no deadlock with bounded admission: every waiter holds its
// admission slot while blocked on done, but the executor is either one of
// those waiters (the one that filled the batch, running inline) or the timer
// goroutine, which needs no slot.
type coalescer struct {
	s        *Server
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	pending *coalesceBatch

	// slots bounds concurrent batch executions to GOMAXPROCS. Filling
	// requests and the timer block on it; the leader's group-commit loop
	// only polls it, holding the batch open while all executors are busy.
	slots chan struct{}

	scratch sync.Pool // *core.BatchScratch
}

// coalesceBatch is one batch in flight. reqs and flushed are guarded by the
// coalescer's mu until the batch is detached; snap and out are written by the
// single executor before done is closed and read by waiters only after.
type coalesceBatch struct {
	reqs    []core.BatchReq
	timer   *time.Timer
	flushed bool
	done    chan struct{}
	snap    *Snapshot
	out     [][]core.Recommendation
}

func newCoalescer(s *Server, window time.Duration, maxBatch int) *coalescer {
	return &coalescer{
		s:        s,
		window:   window,
		maxBatch: maxBatch,
		slots:    make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// do answers one recommend request through the batch path, returning the
// results and the snapshot they were computed against. Typical added wait is
// a few scheduler yields; the window is the worst case.
func (c *coalescer) do(user, t, n int) ([]core.Recommendation, *Snapshot) {
	c.mu.Lock()
	b := c.pending
	leader := b == nil
	if leader {
		b = &coalesceBatch{done: make(chan struct{})}
		b.timer = time.AfterFunc(c.window, func() { c.flush(b) })
		c.pending = b
	}
	idx := len(b.reqs)
	b.reqs = append(b.reqs, core.BatchReq{User: user, T: t, N: n})
	prev := len(b.reqs)
	full := prev >= c.maxBatch
	if full {
		b.flushed = true
		c.pending = nil
	}
	c.mu.Unlock()
	switch {
	case full:
		b.timer.Stop()
		c.slots <- struct{}{}
		c.execute(b)
		<-c.slots
	case leader:
		// Group commit: keep yielding while co-travellers are still joining
		// or every execution slot is busy; flush once the batch has been
		// stable for a few consecutive checks and a slot is free. Requiring
		// several stable checks rides out scheduling gaps between joiners
		// under queued load (letting the batch grow toward maxBatch) while
		// costing a lone request only a handful of yields. Another goroutine
		// may flush first (by filling the batch, or the backstop timer),
		// which the flushed flag reports.
		const stableChecks = 4
		stable := 0
		for {
			runtime.Gosched()
			c.mu.Lock()
			if b.flushed {
				c.mu.Unlock()
				break
			}
			if n := len(b.reqs); n != prev {
				prev = n
				stable = 0
				c.mu.Unlock()
				continue
			}
			if stable++; stable < stableChecks {
				c.mu.Unlock()
				continue
			}
			select {
			case c.slots <- struct{}{}:
			default:
				c.mu.Unlock()
				continue
			}
			b.flushed = true
			if c.pending == b {
				c.pending = nil
			}
			c.mu.Unlock()
			b.timer.Stop()
			c.execute(b)
			<-c.slots
			break
		}
	}
	<-b.done
	return b.out[idx], b.snap
}

// flush executes b if nobody else has. Called from the window timer. The
// slot is acquired BEFORE detaching: while every executor is busy the batch
// stays pending and keeps accepting joiners — detaching first would strand
// a small batch in line for the slot while a new pending batch forms behind
// it, exactly the queueing collapse the convoy design avoids.
func (c *coalescer) flush(b *coalesceBatch) {
	c.slots <- struct{}{}
	c.mu.Lock()
	if b.flushed {
		c.mu.Unlock()
		<-c.slots
		return
	}
	b.flushed = true
	if c.pending == b {
		c.pending = nil
	}
	c.mu.Unlock()
	c.execute(b)
	<-c.slots
}

// execute scores a detached batch against the current snapshot and wakes the
// waiters. Skip lists come from the execution snapshot — not the snapshots
// the members joined under — so the batch is consistent with one generation.
func (c *coalescer) execute(b *coalesceBatch) {
	snap := c.s.snap.load()
	for i := range b.reqs {
		b.reqs[i].Skip = snap.Side.OwnPOIs[b.reqs[i].User]
	}
	sc, _ := c.scratch.Get().(*core.BatchScratch)
	if sc == nil {
		sc = core.NewBatchScratch(snap.Model, c.maxBatch)
	}
	b.snap = snap
	b.out = snap.Model.TopNBatch(b.reqs, sc)
	c.scratch.Put(sc)

	met := c.s.met
	met.Coalesce.Batches.Add(1)
	met.Coalesce.Requests.Add(int64(len(b.reqs)))
	met.Coalesce.BatchSizes[coalesceBucket(len(b.reqs))].Count.Add(1)
	close(b.done)
}

// coalesceBucket maps a batch size onto the /metrics histogram buckets.
func coalesceBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 32:
		return 5
	default:
		return 6
	}
}

// coalesceBucketLabels name the histogram buckets, index-aligned with
// coalesceBucket.
var coalesceBucketLabels = [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33+"}
