package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"tcss/internal/core"
)

// scored is one (POI, score) pair of a recommendation list.
type scored struct {
	POI   int     `json:"poi"`
	Score float64 `json:"score"`
}

// recommendBody mirrors the fields of a /v1/recommend reply the checks read.
type recommendBody struct {
	User       int      `json:"user"`
	T          int      `json:"t"`
	Generation uint64   `json:"generation"`
	Results    []scored `json:"results"`
}

// observeBody mirrors a /v1/observe reply.
type observeBody struct {
	Added      int    `json:"added"`
	Generation uint64 `json:"generation"`
}

// refTopN recomputes the n best POIs for (user, t) without any of the
// serving kernels: one Model.Score per POI — the unfactored Eq (6) product —
// inserted into a sorted list of the n best, so a kernel that is fast and
// wrong disagrees with it. skip is sorted ascending.
func refTopN(m *core.Model, user, t, n int, skip []int) []scored {
	best := make([]scored, 0, n+1) // score descending, POI ascending on ties
	for j := 0; j < m.J; j++ {
		if len(skip) > 0 && skip[0] == j {
			skip = skip[1:]
			continue
		}
		s := m.Score(user, j, t)
		if len(best) == n && s <= best[n-1].Score {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return best[i].Score < s })
		best = append(best, scored{})
		copy(best[at+1:], best[at:])
		best[at] = scored{j, s}
		if len(best) > n {
			best = best[:n]
		}
	}
	return best
}

// scoreTol is the relative distance allowed between a served score and the
// reference: the kernels regroup the rank-length sum, which moves the last
// bits and nothing more.
const scoreTol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= scoreTol*math.Max(1, math.Abs(b)) }

// checkRecommend compares a served body with the reference ranking want,
// position by position. Where the POI differs the scores must still agree
// and, per scoreOf (the reference score of any POI; nil when the model is
// gone), the served POI must really score what was served — two POIs tied to
// the last bit may swap places, a wrong id or score cannot pass.
func checkRecommend(body []byte, o op, want []scored, scoreOf func(poi int) float64) error {
	var got recommendBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if got.User != o.user || got.T != o.t {
		return fmt.Errorf("reply is for (user %d, t %d), asked (%d, %d)", got.User, got.T, o.user, o.t)
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("reply lists %d POIs, reference %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if !near(r.Score, want[i].Score) {
			return fmt.Errorf("position %d: score %v, reference %v (POI %d vs %d)", i, r.Score, want[i].Score, r.POI, want[i].POI)
		}
		if r.POI != want[i].POI && (scoreOf == nil || !near(r.Score, scoreOf(r.POI))) {
			return fmt.Errorf("position %d: POI %d, reference %d", i, r.POI, want[i].POI)
		}
	}
	return nil
}

// bodyChecksum is the order-independent checksum over all replies: the sum
// of the per-reply FNV-64a values, wrapping.
func bodyChecksum(res []opResult) uint64 {
	var sum uint64
	for i := range res {
		sum += res[i].sum
	}
	return sum
}

// golden pins the outputs of one workload at one seed and planned op count.
// It applies only to a run with the same seed, op count and GOARCH (float
// results are bit-stable per architecture, not across them).
type golden struct {
	Schema   int    `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	GOARCH   string `json:"goarch"`
	// Serving workloads: checksum over all reply bodies.
	Checksum string `json:"checksum,omitempty"`
	// train-fit: exact outputs of the fit.
	FinalLoss float64 `json:"final_loss,omitempty"`
	HitAt10   float64 `json:"hit_at_10,omitempty"`
	MRR       float64 `json:"mrr,omitempty"`
}

//go:embed golden/*.json
var goldenFS embed.FS

// loadGolden returns the embedded golden for a workload, or nil when there
// is none.
func loadGolden(workload string) (*golden, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, nil
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return &g, nil
}

// applies reports whether the golden pins a run with this seed and op count.
func (g *golden) applies(seed int64, ops int) bool {
	return g != nil && g.Seed == seed && g.Ops == ops && g.GOARCH == runtime.GOARCH
}

// compare returns an error naming the first field of got that differs.
func (g *golden) compare(got *golden) error {
	switch {
	case g.Checksum != got.Checksum:
		return fmt.Errorf("golden mismatch: checksum %s, golden %s", got.Checksum, g.Checksum)
	case g.FinalLoss != got.FinalLoss:
		return fmt.Errorf("golden mismatch: final loss %v, golden %v", got.FinalLoss, g.FinalLoss)
	case g.HitAt10 != got.HitAt10:
		return fmt.Errorf("golden mismatch: Hit@10 %v, golden %v", got.HitAt10, g.HitAt10)
	case g.MRR != got.MRR:
		return fmt.Errorf("golden mismatch: MRR %v, golden %v", got.MRR, g.MRR)
	}
	return nil
}

// saveGolden writes the golden into dir/golden; it takes effect at the next
// build, which embeds it.
func saveGolden(dir string, g *golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden", g.Workload+".json"), append(data, '\n'), 0o644)
}
