package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// scanCandidates lists the POIs a request may return, ascending, with their
// scores the slow way (ScoreCandidates: one mat.DotWiden/DotUnrolled call per
// row on the storage mode's own slab, int8 scale multiplied last): everything
// not in skip and not zeroed out for user i.
func scanCandidates(m *Model, i, k int, skip []int) []Recommendation {
	excluded := make(map[int]bool, len(skip))
	for _, j := range skip {
		excluded[j] = true
	}
	every := make([]int, m.J)
	for j := range every {
		every[j] = j
	}
	scores := make([]float64, m.J)
	m.ScoreCandidates(i, k, every, scores)
	var recs []Recommendation
	for j, score := range scores {
		if excluded[j] || (m.ZeroOutFilter != nil && !m.ZeroOutFilter[i][j]) {
			continue
		}
		recs = append(recs, Recommendation{POI: j, Score: score})
	}
	return recs
}

// sortedTopN is the specification: rank every candidate by (score descending,
// POI ascending) and keep n. Only meaningful for NaN-free scores.
func sortedTopN(cands []Recommendation, n int) []Recommendation {
	recs := append([]Recommendation(nil), cands...)
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].POI < recs[b].POI
	})
	return recs[:min(n, len(recs))]
}

// offeredTopN is the scan without its threshold: every candidate, ascending,
// through topKHeap.offer. It defines what the kernel must return when scores
// are NaN, where "sort by score" defines nothing.
func offeredTopN(cands []Recommendation, n int) []Recommendation {
	var h topKHeap
	for _, c := range cands {
		h.offer(c.POI, c.Score, n)
	}
	return h.drain()
}

func sameRecs(a, b []Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if a[r].POI != b[r].POI || math.Float64bits(a[r].Score) != math.Float64bits(b[r].Score) {
			return false
		}
	}
	return true
}

// TestScanMatchesFullSort is the differential test of the one scan kernel:
// TopNScratch and TopNBatch (five requests, so a quad group and a single
// lane) against "score every POI, sort, drop the excluded", over storage
// modes × ranks 1…13 (every unroll remainder) × n × skip shapes × a zero-out
// filter × tied scores × NaN/±Inf weights.
func TestScanMatchesFullSort(t *testing.T) {
	const I, J, K = 5, 23, 3
	all := make([]int, J)
	for j := range all {
		all[j] = j
	}
	skips := map[string][]int{
		"nil":          nil,
		"all":          all,
		"first+last":   {0, J - 1},
		"out-of-range": {-7, -1, 4, J, J + 100},
		"duplicates":   {2, 2, 2, 9, 9, J - 1, J - 1},
		"scattered":    {1, 3, 4, 5, 11, 12, 20},
	}
	filter := make([][]bool, I)
	for i := range filter {
		filter[i] = make([]bool, J)
		for j := range filter[i] {
			filter[i][j] = (i+2*j)%3 != 0
		}
	}
	// weights: nil keeps H as drawn; otherwise H[0] is overwritten, and with
	// it every score becomes ±Inf or (row entry 0 → Inf·0, or +Inf + -Inf) NaN.
	weights := map[string]*float64{"finite": nil}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := v
		weights[fmt.Sprint(v)] = &v
	}

	for rank := 1; rank <= 13; rank++ {
		for _, tied := range []bool{false, true} {
			base := storageTestModel(t, I, J, K, rank, int64(100+rank))
			if tied {
				// Five distinct rows repeated down the catalogue: every score
				// occurs four or five times, so the id tie-break decides at the
				// threshold for every n < J.
				for j := 5; j < J; j++ {
					copy(base.U2.Row(j), base.U2.Row(j%5))
				}
			}
			for j := 0; j < J; j += 4 {
				base.U2.Set(j, 0, 0) // Inf·0 = NaN under the ±Inf weights
			}
			for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
				compact, err := base.ToStorage(mode)
				if err != nil {
					t.Fatal(err)
				}
				for wname, h0 := range weights {
					for _, withFilter := range []bool{false, true} {
						m := *compact
						m.H = append([]float64(nil), compact.H...)
						if h0 != nil {
							m.H[0] = *h0
						}
						m.ZeroOutFilter = nil
						if withFilter {
							m.ZeroOutFilter = filter
						}
						for sname, skip := range skips {
							for _, n := range []int{1, 10, J, J + 5} {
								name := fmt.Sprintf("rank %d tied=%v %v H0=%s filter=%v skip=%s n=%d", rank, tied, mode, wname, withFilter, sname, n)
								checkScan(t, name, &m, n, skip, h0 == nil)
							}
						}
					}
				}
			}
		}
	}
}

// checkScan runs one (model, n, skip) cell for five (user, time) pairs through
// both entry points and both references.
func checkScan(t *testing.T, name string, m *Model, n int, skip []int, finite bool) {
	t.Helper()
	reqs := make([]BatchReq, 5)
	for b := range reqs {
		reqs[b] = BatchReq{User: b % m.I, T: (2 * b) % m.K, N: n, Skip: skip}
	}
	batch := m.TopNBatch(reqs, NewBatchScratch(m, len(reqs)))
	s := NewRecScratch(m)
	for b, rq := range reqs {
		cands := scanCandidates(m, rq.User, rq.T, skip)
		want := offeredTopN(cands, n)
		if finite {
			if spec := sortedTopN(cands, n); !sameRecs(want, spec) {
				t.Fatalf("%s req %d: heap reference %+v, full sort %+v", name, b, want, spec)
			}
		}
		if got := m.TopNScratch(rq.User, rq.T, n, skip, s); !sameRecs(got, want) {
			t.Fatalf("%s req %d: TopNScratch %+v, want %+v", name, b, got, want)
		}
		if !sameRecs(batch[b], want) {
			t.Fatalf("%s req %d: TopNBatch %+v, want %+v", name, b, batch[b], want)
		}
	}
}

// TestScanRejectsUnsortedSkip: both entry points depend on an ascending skip
// list (the cursor in topKHeap.admit), so an unsorted one is a caller bug
// that must fail loudly instead of returning wrong exclusions.
func TestScanRejectsUnsortedSkip(t *testing.T) {
	m := randomRecModel(3, 12, 2, 4, 21)
	mustPanic := func(entry string, f func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, entry) || !strings.Contains(msg, "not sorted") {
				t.Fatalf("%s with an unsorted skip list: panic %q, want one naming the entry point and the mistake", entry, msg)
			}
		}()
		f()
	}
	unsorted := []int{5, 2, 9}
	mustPanic("TopNScratch", func() { m.TopNScratch(0, 0, 3, unsorted, NewRecScratch(m)) })
	mustPanic("TopNBatch", func() {
		m.TopNBatch([]BatchReq{{User: 0, T: 0, N: 3}, {User: 1, T: 1, N: 3, Skip: unsorted}}, NewBatchScratch(m, 2))
	})
	// Model.TopN sorts its map, so any exclusion set is fine there.
	if recs := m.TopN(0, 0, m.J, map[int]bool{5: true, 2: true, 9: true}); len(recs) != m.J-3 {
		t.Fatalf("TopN with a 3-POI skip map returned %d of %d POIs", len(recs), m.J)
	}
}
