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
// sorted Skip list per request, and the scores of the tile in hand. Whatever
// rows it is given, it visits them in ascending order.
type scanPart struct {
	ptr   []int
	heaps []topKHeap
	dots  []float64 // batchTileJ(Rank) row scores of one request
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
		if tile := batchTileJ(m.Rank); len(part.dots) < tile {
			part.dots = make([]float64, tile)
		}
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
// int8 — widened to float64 inside mat.DotRows). scales is the per-row
// dequantization scale slab (int8 mode) or nil.
//
// The POI axis is tiled (batchTileJ) so each slab tile is read from memory
// once and served to every request from cache. Per tile and active request,
// mat.DotRows scores every row of the tile into part.dots — the int8 scale
// is multiplied last, after the kernel — and a threshold-first loop walks
// the scores: a row's score is compared with the request's heap minimum,
// held in a local, before anything else is asked about the row. All but a
// handful of rows per request lose that one compare; only the survivors
// reach topKHeap.admit (skip list, zero-out filter, heap). That is exact,
// not approximate — see topKHeap.threshold. Every request visits j ascending
// with the same arithmetic and heap semantics, so results do not depend on
// batch composition.
//
// Skip lists are sorted; each request's cursor (part.ptr) moves monotonically
// across tiles, and only on admitted rows.
//
// The scan covers rows [lo, hi) into part's heaps. s.w and s.act are only
// read, so the parts of a split scan (scanSplit) run it concurrently.
func scanSlab[E mat.Elem](m *Model, reqs []BatchReq, s *BatchScratch, part *scanPart, lo, hi int, slab []E, scales []float64) {
	r := m.Rank
	tile := batchTileJ(r)
	for j0 := lo; j0 < hi; j0 += tile {
		j1 := min(j0+tile, hi)
		dots := part.dots[:j1-j0]
		for _, b := range s.act {
			mat.DotRows(dots, s.w[b*r:b*r+r], slab[j0*r:j1*r])
			if scales != nil {
				for i, sc := range scales[j0:j1] {
					dots[i] = sc * dots[i]
				}
			}
			h, n, skip := &part.heaps[b], reqs[b].N, reqs[b].Skip
			var zf []bool
			if m.ZeroOutFilter != nil {
				zf = m.ZeroOutFilter[reqs[b].User]
			}
			p, thr := part.ptr[b], h.threshold(n)
			for i, d := range dots {
				if !(d <= thr) {
					p, thr = h.admit(j0+i, d, n, skip, p, zf)
				}
			}
			part.ptr[b] = p
		}
	}
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
// have to itself, so that starting a helper and merging its heaps stay small
// beside the work it takes off the caller. It sits at the measured
// break-even: with mat.DotRows scoring the rows, a rank-10 f64 scan at
// GOMAXPROCS 2 on a 2-vCPU box took 74 µs serial and 75 µs in two parts at
// J·Rank = 2¹⁷ (two parts of 2¹⁶), 112 vs 108 µs at 1.5·2¹⁷, 170 vs 156 µs at
// 2¹⁸ and 406 vs 275 µs at 2¹⁹ — so 2¹⁶ elements, ≈ 37 µs of scan, is where
// a second part starts to pay.
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
