// Package wire is the serving API's HTTP contract, written down once: the
// JSON bodies, header names and the X-Deadline-Budget encoding that a serve
// node, the cluster gateway, the replay harness and the load generator all
// speak — including the two documents a node reports itself with,
// NodeMetrics (GET /metrics, built from Counter and Histogram) and Health
// (GET /healthz). Types and pure helpers only — anything with behaviour lives
// in the package that owns it.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Header names of the serving API.
const (
	// DeadlineBudgetHeader carries a request's remaining deadline budget in
	// integer milliseconds (ParseDeadlineBudget / FormatDeadlineBudget).
	DeadlineBudgetHeader = "X-Deadline-Budget"
	// CacheHeader is "HIT" or "MISS" on scored reads; ModelHeader names the
	// routed model and GenerationHeader the snapshot generation answered from.
	CacheHeader      = "X-Cache"
	ModelHeader      = "X-Model"
	GenerationHeader = "X-Generation"
	// ShardHeader and BackendHeader are added by the gateway: the owning shard
	// and the endpoint whose bytes were relayed.
	ShardHeader   = "X-Shard"
	BackendHeader = "X-Backend"
	// RetryAfterHeader accompanies 503s in whole seconds.
	RetryAfterHeader = "Retry-After"
)

// ParseDeadlineBudget decodes an X-Deadline-Budget value. A missing,
// malformed or non-positive value, and one so large that it overflows a
// time.Duration, all report ok = false: the caller falls back to its own
// default exactly as if no header had arrived.
func ParseDeadlineBudget(raw string) (budget time.Duration, ok bool) {
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// FormatDeadlineBudget encodes a budget for the header, truncated to whole
// milliseconds.
func FormatDeadlineBudget(budget time.Duration) string {
	return strconv.FormatInt(budget.Milliseconds(), 10)
}

// Error is the uniform JSON error envelope of every non-2xx answer.
type Error struct {
	Error string `json:"error"`
}

// Recommendation is one ranked POI of a scored read.
type Recommendation struct {
	POI   int     `json:"poi"`
	Score float64 `json:"score"`
}

// ReadResponse is the body of GET /v1/recommend and POST /v1/next. It carries
// no volatile fields, so cached bytes are byte-identical to freshly computed
// ones for the same (generation, query). Model is set by /v1/next only:
// /v1/recommend reports the routed model in the X-Model header alone, keeping
// its pre-registry bytes.
type ReadResponse struct {
	User       int              `json:"user"`
	T          int              `json:"t"`
	Model      string           `json:"model,omitempty"`
	Generation uint64           `json:"generation"`
	Results    []Recommendation `json:"results"`
}

// NextRequest is the body of POST /v1/next: the user's recent check-ins in
// ascending time order.
type NextRequest struct {
	CheckIns []NextCheckIn `json:"checkins"`
}

// NextCheckIn is one visit of a next-POI query sequence.
type NextCheckIn struct {
	POI int `json:"poi"`
	T   int `json:"t"`
}

// ObserveRequest is the body of POST /v1/observe. new_users and new_pois
// carry open-world arrivals (mirroring the drift stream's JSONL shape); a
// node only accepts them when it runs with growth enabled.
type ObserveRequest struct {
	CheckIns []CheckIn `json:"checkins"`
	NewUsers []NewUser `json:"new_users,omitempty"`
	NewPOIs  []POI     `json:"new_pois,omitempty"`
}

// CheckIn is one observed visit.
type CheckIn struct {
	User  int `json:"user"`
	POI   int `json:"poi"`
	Month int `json:"month"`
	Week  int `json:"week"`
	Hour  int `json:"hour"`
}

// NewUser announces a user id beyond the model's current dimension.
type NewUser struct {
	ID      int   `json:"id"`
	Friends []int `json:"friends,omitempty"`
}

// POI announces a POI id beyond the model's current dimension.
type POI struct {
	ID       int     `json:"id"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Category int     `json:"category"`
}

// ObserveResponse is a node's answer to an applied observe batch: the new
// tensor cells, the generation that carries them, and the model dimensions
// of that same generation.
type ObserveResponse struct {
	Added      int    `json:"added"`
	Generation uint64 `json:"generation"`
	Users      int    `json:"users"`
	POIs       int    `json:"pois"`
}

// DecodeObserve reads one observe body and rejects an empty batch; both the
// node and the gateway answer either failure with 400.
func DecodeObserve(r io.Reader) (*ObserveRequest, error) {
	var req ObserveRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding body: %v", err)
	}
	if len(req.CheckIns) == 0 && len(req.NewUsers) == 0 && len(req.NewPOIs) == 0 {
		return nil, errors.New("no checkins in request")
	}
	return &req, nil
}

// Split partitions a batch by user ownership for fan-out to shard primaries:
// each check-in and each new user goes to the shard owner names for its user
// id, while new POIs are copied to every shard in all — every shard scores
// over the full POI space. Shards that receive nothing are absent.
func (req *ObserveRequest) Split(owner func(user int) string, all []string) map[string]*ObserveRequest {
	split := make(map[string]*ObserveRequest)
	sub := func(shard string) *ObserveRequest {
		if split[shard] == nil {
			split[shard] = &ObserveRequest{}
		}
		return split[shard]
	}
	for _, c := range req.CheckIns {
		s := sub(owner(c.User))
		s.CheckIns = append(s.CheckIns, c)
	}
	for _, u := range req.NewUsers {
		s := sub(owner(u.ID))
		s.NewUsers = append(s.NewUsers, u)
	}
	if len(req.NewPOIs) > 0 {
		for _, shard := range all {
			s := sub(shard)
			s.NewPOIs = append(s.NewPOIs, req.NewPOIs...)
		}
	}
	return split
}
