package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tcss/internal/mat"
)

// BatchReq is one recommendation request inside a coalesced batch: the top-N
// POIs for (User, T), excluding the POIs in Skip. Skip must be sorted
// ascending (SideInfo.OwnPOIs is — BuildSideInfo sorts it) and the scan
// panics if it is not; out-of-range and duplicate entries are ignored.
type BatchReq struct {
	User int
	T    int
	N    int
	Skip []int
}

// BatchScratch holds the reusable buffers of TopNBatch: one weight vector per
// request, a shared dequantization buffer, the indices of the active
// requests, and the state of each part of a split scan. Like RecScratch it
// grows on demand, serves models of any shape sequentially, and must not be
// used concurrently.
type BatchScratch struct {
	w     []float64  // batch × Rank, flattened per-request weights
	row   []float64  // 2 × Rank dequantization buffer (compact modes)
	act   []int      // indices of the requests with N > 0
	parts []scanPart // parts[0] runs on the caller and ends holding the answer

	// The split scan in flight (scanSplit): its model, requests and range
	// count for the helpers, the next unclaimed range, whether each part's
	// first range is taken, the helpers started so far and the helpers to
	// wait for. help is the helpers' body, built once so that starting one
	// allocates nothing.
	m       *Model
	reqs    []BatchReq
	ranges  int
	next    atomic.Int32
	first   []atomic.Bool
	started atomic.Int32
	wg      sync.WaitGroup
	help    func()
}

// scanPart is one part of a scan: a bounded heap and a cursor into the
// sorted Skip list per request. Whatever rows it is given, it visits them in
// ascending order.
type scanPart struct {
	ptr   []int
	heaps []topKHeap
}

// NewBatchScratch allocates a scratch sized for batches of up to hint
// requests against m. Passing nil m or hint 0 is allowed; buffers grow
// lazily.
func NewBatchScratch(m *Model, hint int) *BatchScratch {
	s := &BatchScratch{}
	if m != nil && hint > 0 {
		s.ensure(m, hint, m.scanParts())
	}
	return s
}

func (s *BatchScratch) ensure(m *Model, batch, parts int) {
	if len(s.w) < batch*m.Rank {
		s.w = make([]float64, batch*m.Rank)
	}
	if m.Mode != StorageFloat64 && len(s.row) < 2*m.Rank {
		s.row = make([]float64, 2*m.Rank)
	}
	if cap(s.act) < batch {
		s.act = make([]int, 0, batch)
	}
	if len(s.parts) < parts {
		s.parts = append(s.parts, make([]scanPart, parts-len(s.parts))...)
	}
	for p := range s.parts[:parts] {
		part := &s.parts[p]
		if len(part.ptr) < batch {
			part.ptr = make([]int, batch)
		}
		if cap(part.heaps) < batch {
			heaps := make([]topKHeap, batch)
			copy(heaps, part.heaps[:cap(part.heaps)])
			part.heaps = heaps
		}
		part.heaps = part.heaps[:cap(part.heaps)]
	}
	if len(s.first) < parts {
		s.first = make([]atomic.Bool, parts)
	}
	if parts > 1 && s.help == nil {
		s.help = func() {
			defer s.wg.Done()
			if p := int(s.started.Add(1)); s.first[p].CompareAndSwap(false, true) {
				s.m.runPart(s.reqs, s, p)
			}
		}
	}
}

// reset empties the heaps and rewinds the cursors of the first batch
// requests.
func (part *scanPart) reset(batch int) {
	for b := range batch {
		part.ptr[b] = 0
		part.heaps[b].pois = part.heaps[b].pois[:0]
		part.heaps[b].scores = part.heaps[b].scores[:0]
	}
}

// buildWeights writes the factored scoring weights w = h ⊙ U1ᵢ ⊙ U3ₖ into w,
// dequantizing the factor rows through rowbuf (length ≥ 2·Rank) in compact
// modes. It is the single source of the weight expression: TopNScratch,
// TopNBatch, and ScoreCandidates all run the same floating-point operations
// in the same order, which is what makes their scores comparable bit for bit.
func (m *Model) buildWeights(i, k int, w, rowbuf []float64) {
	var u1, u3 []float64
	if m.Mode == StorageFloat64 {
		u1, u3 = m.U1.Row(i), m.U3.Row(k)
	} else {
		u1 = m.row(axUser, i, rowbuf[:m.Rank])
		u3 = m.row(axTime, k, rowbuf[m.Rank:2*m.Rank])
	}
	for t := range w {
		w[t] = m.H[t] * u1[t] * u3[t]
	}
}

// scanSlab is the one top-N scan behind TopNScratch (a batch of one) and
// TopNBatch, generic over the factor slab element type (float64, float32,
// int8 — widened to float64 lane by lane). scales is the per-row
// dequantization scale slab (int8 mode) or nil.
//
// The scan is threshold-first: a row's score is compared with the request's
// heap minimum, held in a local, before anything else is asked about the row.
// All but a handful of rows per request lose that one compare; only the
// survivors reach topKHeap.admit (skip list, zero-out filter, heap). That is
// exact, not approximate — see topKHeap.threshold.
//
// Two levels of batching, both invisible to per-request results:
//
//   - The POI axis is tiled (batchTileJ) so each slab tile is read from
//     memory once and served to every request from cache.
//   - Within a tile, active requests are processed four at a time through
//     mat.Dot4, which loads each row element once for all four lanes —
//     register reuse only a batched caller can have. The remaining zero to
//     three requests (all of a batch of one) take the single-lane loop, whose
//     dot is written out in place because no Go function holding that loop
//     fits the inlining budget. Every lane of either loop accumulates in
//     exactly mat.DotWiden's order, and every request visits j ascending with
//     the same heap semantics, so results do not depend on batch composition.
//
// Skip lists are sorted; each request's cursor (part.ptr) moves monotonically
// across tiles, and only on admitted rows.
//
// The scan covers rows [lo, hi) into part's heaps. s.w and s.act are only
// read, so the parts of a split scan (scanSplit) run it concurrently.
func scanSlab[E mat.Elem](m *Model, reqs []BatchReq, s *BatchScratch, part *scanPart, lo, hi int, slab []E, scales []float64) {
	r := m.Rank
	act := s.act
	zf := func(b int) []bool {
		if m.ZeroOutFilter == nil {
			return nil
		}
		return m.ZeroOutFilter[reqs[b].User]
	}
	tile := batchTileJ(r)
	for j0 := lo; j0 < hi; j0 += tile {
		j1 := min(j0+tile, hi)
		g := 0
		for ; g+4 <= len(act); g += 4 {
			q0, q1, q2, q3 := act[g], act[g+1], act[g+2], act[g+3]
			w0 := s.w[q0*r : q0*r+r]
			w1 := s.w[q1*r : q1*r+r]
			w2 := s.w[q2*r : q2*r+r]
			w3 := s.w[q3*r : q3*r+r]
			h0, h1, h2, h3 := &part.heaps[q0], &part.heaps[q1], &part.heaps[q2], &part.heaps[q3]
			n0, n1, n2, n3 := reqs[q0].N, reqs[q1].N, reqs[q2].N, reqs[q3].N
			sk0, sk1, sk2, sk3 := reqs[q0].Skip, reqs[q1].Skip, reqs[q2].Skip, reqs[q3].Skip
			z0, z1, z2, z3 := zf(q0), zf(q1), zf(q2), zf(q3)
			p0, p1, p2, p3 := part.ptr[q0], part.ptr[q1], part.ptr[q2], part.ptr[q3]
			t0, t1, t2, t3 := h0.threshold(n0), h1.threshold(n1), h2.threshold(n2), h3.threshold(n3)
			for j := j0; j < j1; j++ {
				d0, d1, d2, d3 := mat.Dot4(w0, w1, w2, w3, slab[j*r:(j+1)*r])
				if scales != nil {
					sc := scales[j]
					d0, d1, d2, d3 = sc*d0, sc*d1, sc*d2, sc*d3
				}
				if !(d0 <= t0) {
					p0, t0 = h0.admit(j, d0, n0, sk0, p0, z0)
				}
				if !(d1 <= t1) {
					p1, t1 = h1.admit(j, d1, n1, sk1, p1, z1)
				}
				if !(d2 <= t2) {
					p2, t2 = h2.admit(j, d2, n2, sk2, p2, z2)
				}
				if !(d3 <= t3) {
					p3, t3 = h3.admit(j, d3, n3, sk3, p3, z3)
				}
			}
			part.ptr[q0], part.ptr[q1], part.ptr[q2], part.ptr[q3] = p0, p1, p2, p3
		}
		for ; g < len(act); g++ {
			b := act[g]
			part.ptr[b] = scanLane(s.w[b*r:b*r+r], slab, scales, j0, j1, &part.heaps[b], reqs[b].N, reqs[b].Skip, part.ptr[b], zf(b))
		}
	}
}

// scanLane scores rows j0..j1-1 of slab against one weight vector.
func scanLane[E mat.Elem](w []float64, slab []E, scales []float64, j0, j1 int, h *topKHeap, n int, skip []int, p int, zf []bool) int {
	r := len(w)
	thr := h.threshold(n)
	for j := j0; j < j1; j++ {
		row := slab[j*r : j*r+r]
		var s0, s1, s2, s3 float64
		t := 0
		for ; t+4 <= r; t += 4 {
			s0 += w[t] * float64(row[t])
			s1 += w[t+1] * float64(row[t+1])
			s2 += w[t+2] * float64(row[t+2])
			s3 += w[t+3] * float64(row[t+3])
		}
		for ; t < r; t++ {
			s0 += w[t] * float64(row[t])
		}
		d := (s0 + s1) + (s2 + s3)
		if scales != nil {
			d = scales[j] * d
		}
		if !(d <= thr) {
			p, thr = h.admit(j, d, n, skip, p, zf)
		}
	}
	return p
}

// batchTileJ is the POI-axis tile width of TopNBatch: enough rows that the
// tile amortizes its loop overhead, few enough that a float64 tile
// (tile × rank × 8 bytes) stays L1/L2-resident across every request in the
// batch — that residency is the whole point of batching.
func batchTileJ(rank int) int {
	const budget = 32 << 10 // target tile footprint in bytes (L1-sized)
	t := budget / (8 * rank)
	if t < 64 {
		t = 64
	}
	return t
}

// splitMinElems is the fewest slab elements each part of a split scan must
// have to itself (≈ 45 µs of scan at rank 10), so that starting a helper and
// merging its heaps stay small beside the work it takes off the caller.
const splitMinElems = 1 << 16

// rangesPerPart is how many contiguous POI ranges a split scan cuts [0, J)
// into per part: ranges finer than parts let the caller take over the work of
// a helper that starts late, as one whose core must first be woken does.
const rangesPerPart = 4

// scanParts is the number of parts the public entry points scan m in:
// min(GOMAXPROCS, J·Rank / splitMinElems), and 1 — the serial scan — below
// two parts' worth of slab.
func (m *Model) scanParts() int {
	p := m.J * m.Rank / splitMinElems
	if p < 2 {
		return 1
	}
	return min(p, runtime.GOMAXPROCS(0))
}

// scan runs reqs against m into s.parts[0].heaps: it validates every request
// (caller names the entry point in the panic messages), builds the
// per-request weights, and runs the one generic scan over [0, J), split into
// that many concurrent parts when parts > 1 (scanSplit). The answer does not
// depend on parts.
func (m *Model) scan(caller string, reqs []BatchReq, s *BatchScratch, parts int) {
	for _, rq := range reqs {
		if rq.User < 0 || rq.User >= m.I || rq.T < 0 || rq.T >= m.K {
			panic(fmt.Sprintf("core: %s (user=%d, t=%d) out of model range %dx%d", caller, rq.User, rq.T, m.I, m.K))
		}
		if !sort.IntsAreSorted(rq.Skip) {
			panic(fmt.Sprintf("core: %s skip list for user %d is not sorted ascending; sort it or go through Model.TopN", caller, rq.User))
		}
	}
	s.ensure(m, len(reqs), parts)
	s.act = s.act[:0]
	for b, rq := range reqs {
		if rq.N > 0 {
			s.act = append(s.act, b)
			m.buildWeights(rq.User, rq.T, s.w[b*m.Rank:(b+1)*m.Rank], s.row)
		}
	}
	for p := range parts {
		s.parts[p].reset(len(reqs))
	}
	if parts == 1 {
		m.scanRange(reqs, s, &s.parts[0], 0, m.J)
		return
	}
	m.scanSplit(reqs, s, parts)
}

// scanRange dispatches the one generic scan of rows [lo, hi) into part on
// the storage mode's slab.
func (m *Model) scanRange(reqs []BatchReq, s *BatchScratch, part *scanPart, lo, hi int) {
	switch m.Mode {
	case StorageFloat32:
		scanSlab(m, reqs, s, part, lo, hi, m.Compact[axPOI].f32, nil)
	case StorageInt8:
		scanSlab(m, reqs, s, part, lo, hi, m.Compact[axPOI].i8, m.Compact[axPOI].scale)
	default:
		scanSlab(m, reqs, s, part, lo, hi, m.U2.Data, nil)
	}
}

// scanSplit scans [0, J) as rangesPerPart·parts contiguous ranges shared by
// parts parts — part 0 on the caller, each other one on a helper goroutine
// (runPart) — and then offers every other part's survivors into part 0's
// heaps. Part p's first range is range p. A helper that has not taken its
// first range by the time the caller runs out of ranges would only add its
// wake-up to the request, so the caller scans that range itself, into that
// part's heaps, and the helper, once started, finds it taken and returns.
//
// The merge is exact. A part is the serial scan run on a subset of the rows:
// same arithmetic per row, rows ascending, the same threshold rule. For
// non-NaN scores topKHeap's order (score descending, POI ascending) is
// strict, so a part's heap holds exactly the top n of its eligible rows, the
// global top n lies in the union of those sets, and offering the union in any
// order keeps exactly it — whichever part claimed which range. NaN breaks the
// strictness: NaN neither beats nor loses to anything, so what a heap keeps
// depends on the order of offers. But a NaN is only ever inserted while a
// heap has room and is never evicted, and a row the serial scan reaches with
// room left is reached with room left by its own part, which has seen a
// subset of the rows before it. So if no part's heap holds a NaN the serial
// scan never inserted one either, and if any does the scan is re-run
// serially.
func (m *Model) scanSplit(reqs []BatchReq, s *BatchScratch, parts int) {
	s.m, s.reqs, s.ranges = m, reqs, rangesPerPart*parts
	s.next.Store(int32(parts))
	s.started.Store(0)
	for p := range parts {
		s.first[p].Store(false)
	}
	s.wg.Add(parts - 1)
	for range parts - 1 {
		go s.help()
	}
	m.runPart(reqs, s, 0)
	for p := 1; p < parts; p++ {
		if s.first[p].CompareAndSwap(false, true) {
			m.scanRange(reqs, s, &s.parts[p], p*m.J/s.ranges, (p+1)*m.J/s.ranges)
		}
	}
	s.wg.Wait()
	s.m, s.reqs = nil, nil
	for p := range parts {
		for _, b := range s.act {
			for _, score := range s.parts[p].heaps[b].scores {
				if score != score {
					s.parts[0].reset(len(reqs))
					m.scanRange(reqs, s, &s.parts[0], 0, m.J)
					return
				}
			}
		}
	}
	for _, b := range s.act {
		h := &s.parts[0].heaps[b]
		for p := 1; p < parts; p++ {
			o := &s.parts[p].heaps[b]
			for t, poi := range o.pois {
				h.offer(poi, o.scores[t], reqs[b].N)
			}
		}
	}
}

// runPart runs part p of a split scan: range p, then the lowest range no
// part has claimed, until none is left. Claims only grow, so the part visits
// its rows in ascending order.
func (m *Model) runPart(reqs []BatchReq, s *BatchScratch, p int) {
	for r := p; r < s.ranges; r = int(s.next.Add(1)) - 1 {
		m.scanRange(reqs, s, &s.parts[p], r*m.J/s.ranges, (r+1)*m.J/s.ranges)
	}
}

// TopNBatch answers a batch of top-N requests in one pass over the POI factor
// slab: each slab tile is read from memory once and scored for every request
// while it is cache-resident, so a batch of B requests reads the slab once
// instead of B times.
//
// Per request the candidate order, arithmetic and heap semantics are exactly
// TopNScratch's — it is the same scan — so out[b] is bit-identical to
// m.TopNScratch(reqs[b].User, reqs[b].T, reqs[b].N, reqs[b].Skip, …) in every
// storage mode. Requests may mix users, time slices, N, and skip lists; an
// unsorted Skip panics. A request with N <= 0 yields a nil entry.
func (m *Model) TopNBatch(reqs []BatchReq, s *BatchScratch) [][]Recommendation {
	out := make([][]Recommendation, len(reqs))
	m.scan("TopNBatch", reqs, s, m.scanParts())
	for _, b := range s.act {
		out[b] = s.parts[0].heaps[b].drain()
	}
	return out
}
