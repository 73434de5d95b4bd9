package serve

import (
	"context"
	"sync/atomic"
)

// admission is the read path's bounded admission queue: at most maxInflight
// requests score concurrently, at most maxQueue more may wait for a slot, and
// anything beyond that is shed immediately with 503 + Retry-After so an
// overloaded server degrades to fast rejections instead of collapsing under
// unbounded goroutine and memory growth (every accepted request holds scratch
// buffers and a response in flight).
type admission struct {
	slots       chan struct{}
	maxInflight int
	maxQueue    int
	inflight    atomic.Int64
	waiting     atomic.Int64
}

func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:       make(chan struct{}, maxInflight),
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
	}
}

// acquire blocks until a slot is free (nil: the caller must release()), the
// queue overflows (errShed: 503 + Retry-After), or ctx expires while waiting
// (errDeadline: 504).
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return nil
	default:
	}
	// No free slot: join the bounded wait queue if there is room.
	if a.waiting.Add(1) > int64(a.maxQueue) {
		a.waiting.Add(-1)
		return shed("read queue")
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return errDeadline
	}
}

func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.slots
}
