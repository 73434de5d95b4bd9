package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrDegraded is the sentinel wrapped by write-path rejections while the
// circuit breaker is open: the server is degraded — reads keep serving the
// last good snapshot — and the client should retry after the breaker's
// backoff. Test with errors.Is.
var ErrDegraded = errors.New("serve: write path degraded")

// breakerState is the circuit breaker's position in its state machine.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy, writes flow
	breakerOpen                         // tripped, writes rejected until a backoff passes
	breakerHalfOpen                     // backoff passed, one probe write admitted
)

func (st breakerState) String() string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// The breaker's schedule: breakerThreshold consecutive write failures trip
// it open; breakerBaseBackoff is the first open interval, doubling per
// re-trip up to breakerMaxBackoff (both jittered).
const (
	breakerThreshold   = 3
	breakerBaseBackoff = 100 * time.Millisecond
	breakerMaxBackoff  = 5 * time.Second
)

// breaker is the write-path circuit breaker. The writer goroutine owns the
// allow/success/failure cycle (writes are serialized, so at most one probe is
// ever in flight); status is read concurrently by /healthz and /metrics,
// hence the mutex.
//
// Closed until breakerThreshold consecutive failures; then open for an
// exponentially growing, jittered, capped backoff; then half-open, admitting
// exactly one probe whose outcome either closes the breaker (recovery) or
// re-opens it with a doubled backoff.
type breaker struct {
	mu  sync.Mutex
	now func() time.Time
	rng *rand.Rand // jitter; fixed seed, so runs are reproducible

	state       breakerState
	consecutive int
	backoff     time.Duration // last computed backoff (pre-jitter)
	until       time.Time     // when open: earliest probe time
	lastErr     error
}

func newBreaker(now func() time.Time) *breaker {
	return &breaker{now: now, rng: rand.New(rand.NewSource(0))}
}

// allow reports whether a write may proceed. While open it returns an error
// wrapping ErrDegraded until the backoff deadline passes, at which point the
// breaker moves to half-open and admits the caller as the probe.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return nil
	}
	if b.now().Before(b.until) {
		return fmt.Errorf("%w (retry in %s): %v", ErrDegraded, b.until.Sub(b.now()).Round(time.Millisecond), b.lastErr)
	}
	b.state = breakerHalfOpen
	return nil
}

// success records a completed write; it reports whether this closed a
// previously tripped breaker (a recovery).
func (b *breaker) success() (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered = b.state != breakerClosed
	b.state = breakerClosed
	b.consecutive = 0
	b.backoff = 0
	b.lastErr = nil
	return recovered
}

// failure records a failed write; it reports whether this tripped the
// breaker open (from closed after threshold consecutive failures, or
// immediately from a failed half-open probe).
func (b *breaker) failure(err error) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	b.lastErr = err
	if b.state == breakerClosed && b.consecutive < breakerThreshold {
		return false
	}
	wasOpen := b.state == breakerOpen
	b.state = breakerOpen
	if b.backoff == 0 {
		b.backoff = breakerBaseBackoff
	} else {
		b.backoff *= 2
	}
	b.backoff = min(b.backoff, breakerMaxBackoff)
	// Jitter: [backoff, 1.25*backoff), so synchronized clients desynchronize.
	jittered := b.backoff + time.Duration(b.rng.Int63n(int64(b.backoff)/4+1))
	b.until = b.now().Add(jittered)
	return !wasOpen
}

// status returns the state name, a human reason when degraded, and how long
// until the next probe (0 when not open or already due).
func (b *breaker) status() (state, reason string, retryIn time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	state = b.state.String()
	if b.state != breakerClosed && b.lastErr != nil {
		reason = b.lastErr.Error()
	}
	if b.state == breakerOpen {
		if d := b.until.Sub(b.now()); d > 0 {
			retryIn = d
		}
	}
	return state, reason, retryIn
}
