// Package registry is the multi-model serving layer: a named set of Scorers
// (the TCSS snapshot plus any sequential models) with per-request routing
// policies — deterministic hash-split A/B by user id, explicit ?model=
// override, and off-path shadow scoring — and per-model serving metrics.
//
// The registry is configured once (Register*, SetAB, SetShadow, Finalize)
// before the HTTP server starts taking traffic; after Finalize the routing
// configuration is immutable, so Route/RouteNext read it without locks.
package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tcss/internal/core"
	"tcss/internal/wire"
)

// Scorer is the model seam the serving tier routes through instead of a
// concrete core.Model: anything that can rank POIs for a (user, time) query
// and report its dimensions and snapshot generation is servable.
type Scorer interface {
	Name() string
	// Generation is the serving-snapshot generation of the model's current
	// state; it keys response caches so a swap invalidates stale entries.
	Generation() uint64
	// Dims reports (users, pois, times).
	Dims() (users, pois, times int)
	// Recommend returns the top-n POIs for user at time unit t along with
	// the generation the scores were computed against.
	Recommend(user, t, n int) ([]core.Recommendation, uint64, error)
}

// Event is one check-in of a next-POI query sequence — the posted wire shape
// itself, so the serving tier hands a decoded body straight to the scorer.
type Event = wire.NextCheckIn

// NextScorer is a Scorer that can additionally score the next POI after a
// caller-supplied check-in sequence (the sequential models).
type NextScorer interface {
	Scorer
	Next(user int, seq []Event, t, n int) ([]core.Recommendation, uint64, error)
}

// Sentinel errors, mapped to HTTP statuses by the serving handlers.
var (
	// ErrUnknownModel: the requested model name is not registered (404).
	ErrUnknownModel = errors.New("registry: unknown model")
	// ErrNotReady: the model exists but cannot score yet, e.g. a sequential
	// model that is not fitted (503).
	ErrNotReady = errors.New("registry: model is not ready to score")
	// ErrNotNextCapable: the requested model cannot score next-POI queries
	// (400 — the request is malformed for this model).
	ErrNotNextCapable = errors.New("registry: model cannot score next-POI queries")
	// ErrNoNextModel: no registered model is next-capable (404 — the
	// endpoint has nothing to route to).
	ErrNoNextModel = errors.New("registry: no next-POI capable model registered")
)

// Arm labels which routing policy selected the model for a request.
type Arm string

const (
	ArmDefault  Arm = "default"
	ArmA        Arm = "ab-a"
	ArmB        Arm = "ab-b"
	ArmOverride Arm = "override"
)

// Decision is the outcome of routing one request.
type Decision struct {
	// Model is the name of the scorer that answers the request.
	Model string
	// Arm records which policy picked it.
	Arm Arm
	// Shadow, when non-empty, names the model to score off the request
	// path for agreement tracking. Never equal to Model.
	Shadow string
}

// Registry holds the named scorers and the routing configuration.
type Registry struct {
	order   []string
	entries map[string]*entry

	primary string  // arm-A / default model
	abB     string  // arm-B model ("" = no split)
	abFrac  float64 // fraction of users routed to abB
	shadow  string  // shadow model ("" = off)
	nextDef string  // default next-POI model ("" = none registered)
	final   bool

	shadowSem     chan struct{}
	shadowWG      sync.WaitGroup
	shadowDropped atomic.Int64
}

// New returns an empty registry. Shadow scoring is bounded to a small fixed
// number of concurrent off-path requests; excess shadows are dropped and
// counted rather than queued, so a slow shadow model cannot back up the
// foreground path.
func New() *Registry {
	return &Registry{
		entries:   make(map[string]*entry),
		shadowSem: make(chan struct{}, 4),
	}
}

// Register adds a scorer under its own name.
func (r *Registry) Register(s Scorer) error {
	if r.final {
		return fmt.Errorf("registry: Register after Finalize")
	}
	name := s.Name()
	if name == "" {
		return fmt.Errorf("registry: scorer has empty name")
	}
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("registry: duplicate model name %q", name)
	}
	r.entries[name] = newEntry(s)
	r.order = append(r.order, name)
	return nil
}

// RegisterPrimary registers s and makes it the default (arm-A) model.
func (r *Registry) RegisterPrimary(s Scorer) error {
	if err := r.Register(s); err != nil {
		return err
	}
	r.primary = s.Name()
	return nil
}

// SetAB enables a deterministic hash-split: fracB of users (by id) are routed
// to model b, the rest to the primary.
func (r *Registry) SetAB(b string, fracB float64) error {
	if r.final {
		return fmt.Errorf("registry: SetAB after Finalize")
	}
	if fracB < 0 || fracB > 1 {
		return fmt.Errorf("registry: A/B fraction %g outside [0,1]", fracB)
	}
	r.abB = b
	r.abFrac = fracB
	return nil
}

// SetShadow enables off-path shadow scoring against the named model on every
// request whose routed model differs from it.
func (r *Registry) SetShadow(name string) error {
	if r.final {
		return fmt.Errorf("registry: SetShadow after Finalize")
	}
	r.shadow = name
	return nil
}

// Finalize validates the configuration and freezes it. All referenced names
// must be registered, every scorer must agree with the primary on dimensions,
// and the default next-POI model becomes the first registered NextScorer.
func (r *Registry) Finalize() error {
	if r.final {
		return fmt.Errorf("registry: Finalize called twice")
	}
	if r.primary == "" {
		return fmt.Errorf("registry: no primary model registered")
	}
	pu, pp, pt := r.entries[r.primary].s.Dims()
	for _, name := range r.order {
		e := r.entries[name]
		u, p, t := e.s.Dims()
		// A not-yet-fitted model reports zero dims; it is routable (and
		// answers 503) so dimension agreement is only enforced once it has
		// state.
		if u == 0 && p == 0 && t == 0 {
			continue
		}
		if u != pu || p != pp || t != pt {
			return fmt.Errorf("registry: model %q dims (%d,%d,%d) disagree with primary %q (%d,%d,%d)",
				name, u, p, t, r.primary, pu, pp, pt)
		}
		if _, ok := e.s.(NextScorer); ok && r.nextDef == "" {
			r.nextDef = name
		}
	}
	// An unfitted NextScorer can still be the next default.
	if r.nextDef == "" {
		for _, name := range r.order {
			if _, ok := r.entries[name].s.(NextScorer); ok {
				r.nextDef = name
				break
			}
		}
	}
	if r.abB != "" {
		if _, ok := r.entries[r.abB]; !ok {
			return fmt.Errorf("registry: A/B model %q is not registered", r.abB)
		}
	}
	if r.shadow != "" {
		if _, ok := r.entries[r.shadow]; !ok {
			return fmt.Errorf("registry: shadow model %q is not registered", r.shadow)
		}
	}
	r.final = true
	return nil
}

// Names returns the registered model names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Get returns the named scorer.
func (r *Registry) Get(name string) (Scorer, bool) {
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.s, true
}

// Route decides which model answers a /v1/recommend request. override is the
// ?model= query value ("" = policy routing).
func (r *Registry) Route(user int, override string) (Decision, error) {
	if override != "" {
		if _, ok := r.entries[override]; !ok {
			return Decision{}, fmt.Errorf("%w: %q", ErrUnknownModel, override)
		}
		return r.withShadow(Decision{Model: override, Arm: ArmOverride}), nil
	}
	d := Decision{Model: r.primary, Arm: ArmDefault}
	if r.abB != "" {
		if ABAssign(user, r.abFrac) {
			d = Decision{Model: r.abB, Arm: ArmB}
		} else {
			d = Decision{Model: r.primary, Arm: ArmA}
		}
	}
	return r.withShadow(d), nil
}

// RouteNext decides which model answers a /v1/next request. Only
// next-capable models are eligible: an override naming a model that cannot
// score sequences fails with ErrNotNextCapable, and policy routing targets
// the default sequential model (A/B applies when both arms are
// next-capable).
func (r *Registry) RouteNext(user int, override string) (Decision, error) {
	if override != "" {
		e, ok := r.entries[override]
		if !ok {
			return Decision{}, fmt.Errorf("%w: %q", ErrUnknownModel, override)
		}
		if _, ok := e.s.(NextScorer); !ok {
			return Decision{}, fmt.Errorf("%w: %q", ErrNotNextCapable, override)
		}
		return r.withNextShadow(Decision{Model: override, Arm: ArmOverride}), nil
	}
	if r.nextDef == "" {
		return Decision{}, ErrNoNextModel
	}
	d := Decision{Model: r.nextDef, Arm: ArmDefault}
	if r.abB != "" && r.abB != r.nextDef {
		_, aOK := r.entries[r.nextDef].s.(NextScorer)
		_, bOK := r.entries[r.abB].s.(NextScorer)
		if aOK && bOK {
			if ABAssign(user, r.abFrac) {
				d = Decision{Model: r.abB, Arm: ArmB}
			} else {
				d = Decision{Model: r.nextDef, Arm: ArmA}
			}
		}
	}
	return r.withNextShadow(d), nil
}

func (r *Registry) withShadow(d Decision) Decision {
	if r.shadow != "" && r.shadow != d.Model {
		d.Shadow = r.shadow
	}
	return d
}

func (r *Registry) withNextShadow(d Decision) Decision {
	if r.shadow != "" && r.shadow != d.Model {
		if _, ok := r.entries[r.shadow].s.(NextScorer); ok {
			d.Shadow = r.shadow
		}
	}
	return d
}

// abSalt decorrelates the A/B assignment hash from the cluster ring's shard
// placement hash (which feeds the bare user id through splitmix64): without
// it, arm membership would be a strict function of shard ownership.
const abSalt = 0x5bd1e995a0f3c1e7

// ABAssign reports whether user falls in arm B at the given fraction. The
// assignment is a pure function of the user id, so it is stable across
// process restarts and identical on every shard replica.
func ABAssign(user int, fracB float64) bool {
	if fracB <= 0 {
		return false
	}
	if fracB >= 1 {
		return true
	}
	h := splitmix64(uint64(user) ^ abSalt)
	// Top 53 bits → uniform float in [0,1).
	return float64(h>>11)/float64(1<<53) < fracB
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), a high-quality
// avalanche mix of a 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
