package fault

import "sync"

// Hooks injects transient errors into an arbitrary code path — the seam the
// serving writer loop exposes so its circuit breaker and retry logic can be
// exercised under deterministic failure. FailNext scripts an exact number of
// consecutive failures, which is what a test asserting breaker transitions
// wants. A nil *Hooks is a no-op, so production paths pay a single pointer
// check.
type Hooks struct {
	mu       sync.Mutex
	failNext int
	failErr  error

	injected int64 // total errors injected
}

// NewHooks returns hooks with nothing armed.
func NewHooks() *Hooks { return &Hooks{} }

// FailNext scripts the next n Before calls to return err (ErrInjected when
// err is nil).
func (h *Hooks) FailNext(n int, err error) {
	h.mu.Lock()
	h.failNext = n
	h.failErr = err
	h.mu.Unlock()
}

// Injected returns how many errors Before has injected so far.
func (h *Hooks) Injected() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.injected
}

// Before is called by the guarded code path at the top of the operation
// named op (informational). It returns an injected error or nil. Safe on a
// nil receiver.
func (h *Hooks) Before(op string) error {
	if h == nil {
		return nil
	}
	_ = op
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failNext <= 0 {
		return nil
	}
	h.failNext--
	h.injected++
	if h.failErr != nil {
		return h.failErr
	}
	return ErrInjected
}
