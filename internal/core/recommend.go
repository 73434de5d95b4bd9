package core

import (
	"math"
	"sort"
)

// RecScratch holds the reusable buffers of the allocation-free top-N
// recommendation path: a BatchScratch sized for one request plus that
// request's slot. One scratch serves any number of sequential TopNScratch
// calls; buffers grow on demand, so a scratch can also be shared across
// models (e.g. successive serving snapshots) as long as calls do not overlap.
// A RecScratch must not be used concurrently; give each worker its own (the
// serving layer pools them with sync.Pool).
type RecScratch struct {
	batch BatchScratch
	req   [1]BatchReq
}

// NewRecScratch allocates buffers sized for m. Passing nil is allowed; the
// buffers are then grown lazily by the first TopNScratch call.
func NewRecScratch(m *Model) *RecScratch {
	s := &RecScratch{}
	if m != nil {
		s.batch.ensure(m, 1, m.scanParts())
	}
	return s
}

// topKHeap is a bounded min-heap over (score, POI) pairs whose root is the
// WORST retained candidate under the ranking order "score descending, POI
// ascending". Because POI ids are unique the order is strict, so the heap
// selects exactly the same top-n set — and, after the final sort, exactly the
// same sequence — as sorting all candidates (Model.TopN's historical
// behaviour), in O(J log n) instead of O(J log J) with no O(J) slice.
type topKHeap struct {
	pois   []int
	scores []float64
}

// worse reports whether element a ranks strictly below element b.
func (h *topKHeap) worse(a, b int) bool {
	if h.scores[a] != h.scores[b] {
		return h.scores[a] < h.scores[b]
	}
	return h.pois[a] > h.pois[b]
}

func (h *topKHeap) swap(a, b int) {
	h.pois[a], h.pois[b] = h.pois[b], h.pois[a]
	h.scores[a], h.scores[b] = h.scores[b], h.scores[a]
}

func (h *topKHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.pois)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.worse(l, min) {
			min = l
		}
		if r < n && h.worse(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// offer inserts (poi, score) if the heap has room or the candidate beats the
// current worst retained element.
func (h *topKHeap) offer(poi int, score float64, capacity int) {
	if len(h.pois) < capacity {
		h.pois = append(h.pois, poi)
		h.scores = append(h.scores, score)
		h.up(len(h.pois) - 1)
		return
	}
	// Root is the worst retained; replace it iff the candidate ranks above it
	// (higher score, or equal score with a smaller POI id).
	if h.scores[0] < score || (h.scores[0] == score && h.pois[0] > poi) {
		h.pois[0], h.scores[0] = poi, score
		h.down(0)
	}
}

// threshold returns the value thr for which a scan visiting POIs in ascending
// id order may drop every row scoring d with d <= thr without asking offer:
// the retained minimum once the heap holds n candidates (a later, larger id
// with an equal score loses the tie-break, a lower score loses outright), and
// NaN before that — no d satisfies d <= NaN, so every row is offered while
// there is room. A NaN score also fails the test and reaches offer, which
// stays the only arbiter of what enters the heap.
func (h *topKHeap) threshold(n int) float64 {
	if len(h.pois) < n {
		return math.NaN()
	}
	return h.scores[0]
}

// admit is the scan's rare path for a row the threshold could not reject: it
// offers POI j with score d unless j is excluded by the sorted skip list
// (cursor p, advanced monotonically) or the zero-out filter row zf (nil for
// none). It returns the cursor and the heap's threshold after the offer.
func (h *topKHeap) admit(j int, d float64, n int, skip []int, p int, zf []bool) (int, float64) {
	for p < len(skip) && skip[p] < j {
		p++
	}
	if (p == len(skip) || skip[p] != j) && (zf == nil || zf[j]) {
		h.offer(j, d, n)
	}
	return p, h.threshold(n)
}

// drain empties the heap worst-first into a new slice ordered best-first.
func (h *topKHeap) drain() []Recommendation {
	out := make([]Recommendation, len(h.pois))
	for len(h.pois) > 0 {
		last := len(h.pois) - 1
		out[last] = Recommendation{POI: h.pois[0], Score: h.scores[0]}
		h.swap(0, last)
		h.pois = h.pois[:last]
		h.scores = h.scores[:last]
		h.down(0)
	}
	return out
}

// TopNScratch returns the n highest-scoring POIs for user i at time unit k,
// excluding the POIs listed in skip, reusing s's buffers. It is the scoring
// kernel behind both Model.TopN and the serving layer's recommend handler,
// and it is TopNBatch's scan run on a batch of one: the per-(user,time)
// weights w = h ⊙ U1ᵢ ⊙ U3ₖ are factored out once, each candidate POI costs a
// single rank-length inner product and one compare against the current n-th
// best score, and the few survivors go through the skip list, the zero-out
// filter (applied exactly as in Score) and a bounded top-K heap. On a large
// catalogue the scan is split into contiguous POI ranges on idle cores and
// the ranges' heaps are merged exactly (see scanSplit). skip must be sorted
// ascending (an unsorted list panics); out-of-range and duplicate ids are
// ignored. Results are ordered by score descending with POI id ascending as
// the tie-break — identical to sorting all candidates.
//
// Steady-state calls allocate at most 4 objects, whatever J and the number
// of ranges: the returned slice, and on a split scan whatever the runtime
// allocates to start the helper goroutines when it has no exited one to
// reuse.
func (m *Model) TopNScratch(i, k, n int, skip []int, s *RecScratch) []Recommendation {
	s.req[0] = BatchReq{User: i, T: k, N: n, Skip: skip}
	m.scan("TopNScratch", s.req[:], &s.batch, m.scanParts())
	if n <= 0 {
		return nil
	}
	return s.batch.parts[0].heaps[0].drain()
}

// TopN returns the n highest-scoring POIs for user i at time unit k,
// excluding the POIs in skip (typically the user's already-visited set). It
// delegates to TopNScratch with a fresh scratch; callers on a hot path should
// hold a RecScratch and call TopNScratch directly.
func (m *Model) TopN(i, k, n int, skip map[int]bool) []Recommendation {
	var skipList []int
	if len(skip) > 0 {
		skipList = make([]int, 0, len(skip))
		for j, excluded := range skip {
			if excluded {
				skipList = append(skipList, j)
			}
		}
		sort.Ints(skipList)
	}
	return m.TopNScratch(i, k, n, skipList, NewRecScratch(m))
}
