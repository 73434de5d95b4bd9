package baselines

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"tcss/internal/geo"
	"tcss/internal/nn"
	"tcss/internal/train"
)

// The sequential baselines (STRNN, STGN, STAN) model each user's
// time-ordered check-in trajectory. They are trained on a next-POI
// objective: at every trajectory position the model scores the true next POI
// against a sampled negative with binary cross-entropy. At evaluation time
// the user's summary state (final hidden state, or attention context) plus a
// time or user embedding scores arbitrary (user, POI, time) triples under the
// same protocol as the tensor models.
//
// Recurrent gradients are truncated to one step (the standard cheap BPTT-1
// scheme): the previous hidden state is treated as a constant at each step.

// seqLR is the Adam learning rate of all three sequential models.
const seqLR = 0.01

// trajectories is the mini-batch sweep of the sequential models: one example
// per user with at least two visits, in user order, each its own batch, so
// the optimizer steps once per trajectory on the gradients learn accumulated
// over its steps. The models report no loss.
func trajectories(seqs [][]Visit, learn func(user int, seq []Visit)) *train.MiniBatch {
	var users []int
	for i, seq := range seqs {
		if len(seq) >= 2 {
			users = append(users, i)
		}
	}
	return &train.MiniBatch{
		Examples: func(int, *rand.Rand) (int, error) { return len(users), nil },
		Step: func(n int) float64 {
			learn(users[n], seqs[users[n]])
			return 0
		},
		BatchSize: 1,
	}
}

// readout is the score every sequential model ends in, σ((a+b)·e): a is the
// model's summary state (hidden state or attention context), b the embedding
// it adds (target time or user) and e the candidate POI's embedding.
func readout(a, b, e []float64) float64 {
	var logit float64
	for d := range e {
		logit += (a[d] + b[d]) * e[d]
	}
	return nn.SigmoidF(logit)
}

// pairStep is the training step all three models share. The true next POI
// pos (target 1) and one negative drawn from rng (target 0, never pos) are
// scored by readout(a, emb[row], e_j); the gradients of their binary
// cross-entropy go into pois and emb, and the gradient w.r.t. a is added to
// dA.
func pairStep(rng *rand.Rand, pois, emb *nn.Embedding, row, pos int, a, dA []float64) {
	neg := rng.Intn(pois.N)
	for neg == pos {
		neg = rng.Intn(pois.N)
	}
	b := emb.Lookup(row)
	for _, cand := range [2]struct {
		j      int
		target float64
	}{{pos, 1}, {neg, 0}} {
		e := pois.Lookup(cand.j)
		g := readout(a, b, e) - cand.target
		dE := make([]float64, len(e))
		dB := make([]float64, len(e))
		for d := range e {
			dE[d] = g * (a[d] + b[d])
			dB[d] = g * e[d]
			dA[d] += g * e[d]
		}
		pois.Accumulate(cand.j, dE)
		emb.Accumulate(row, dB)
	}
}

// seqCell is the recurrence that tells STRNN from STGN. step advances the
// state (h, and the memory c, which the vanilla RNN passes through) over the
// previous POI's embedding e and the transition features Δt, Δd; backward
// takes the gradient of the step's new hidden state, accumulates the cell's
// parameter gradients and returns the gradient of e. Gradients stop at the
// previous state (BPTT-1).
type seqCell interface {
	step(e, h, c []float64, dt, dd float64) (h2, c2 []float64, cache any)
	backward(cache any, dH []float64) (dE []float64)
	Params() []nn.Param
}

// rnnCell is STRNN's recurrence: a vanilla RNN fed [e; Δt; Δd].
type rnnCell struct{ *nn.RNNCell }

func (c rnnCell) step(e, h, mem []float64, dt, dd float64) ([]float64, []float64, any) {
	in := make([]float64, len(e)+2)
	copy(in, e)
	in[len(e)], in[len(e)+1] = dt, dd
	h, cache := c.Forward(in, h)
	return h, mem, cache
}

func (c rnnCell) backward(cache any, dH []float64) []float64 {
	dIn, _ := c.Backward(cache.(*nn.RNNCache), dH)
	return dIn[:len(dH)] // Δt and Δd are data
}

// stlstmCell is STGN's recurrence: the ST-LSTM over e, gated by Δt and Δd.
type stlstmCell struct{ *nn.STLSTMCell }

func (c stlstmCell) step(e, h, mem []float64, dt, dd float64) ([]float64, []float64, any) {
	return c.Forward(e, h, mem, dt, dd)
}

func (c stlstmCell) backward(cache any, dH []float64) []float64 {
	dE, _, _ := c.Backward(cache.(*nn.STLSTMCache), dH, make([]float64, len(dH)))
	return dE
}

// recurrent is STRNN and STGN: POI and time embeddings, a cell rolled over
// each user's trajectory, and readout(h, t_k, e_j) on the final hidden state.
type recurrent struct {
	name    string
	newCell func(rank int, rng *rand.Rand) (seqCell, map[string][]float64)

	embPOI, embTime *nn.Embedding
	cell            seqCell
	params          map[string][]float64 // the persisted weights by state-file key
	finalH          [][]float64
	dist            *geo.DistanceMatrix
	fit             bool
}

// NewSTRNN returns STRNN (Liu et al., AAAI 2016): a vanilla RNN whose input
// is the previous POI's embedding concatenated with the time-gap and
// distance features of the transition.
func NewSTRNN() SeqServer {
	return &recurrent{name: "STRNN", newCell: func(r int, rng *rand.Rand) (seqCell, map[string][]float64) {
		c := nn.NewRNNCell("strnn.cell", r+2, r, rng)
		return rnnCell{c}, map[string][]float64{"cell.Wx": c.Wx, "cell.Wh": c.Wh, "cell.B": c.B}
	}}
}

// NewSTGN returns STGN (Zhao et al., AAAI 2019): the spatio-temporal gated
// LSTM (nn.STLSTMCell), whose time and distance gates, driven by Δt and Δd,
// modulate how much of each check-in enters the memory.
func NewSTGN() SeqServer {
	return &recurrent{name: "STGN", newCell: func(r int, rng *rand.Rand) (seqCell, map[string][]float64) {
		c := nn.NewSTLSTMCell("stgn.cell", r, r, rng)
		return stlstmCell{c}, map[string][]float64{
			"cell.W": c.W, "cell.B": c.B,
			"cell.WxT": c.WxT, "cell.WtT": c.WtT, "cell.BT": c.BT,
			"cell.WxD": c.WxD, "cell.WdD": c.WdD, "cell.BD": c.BD,
		}
	}}
}

// Name implements Recommender.
func (m *recurrent) Name() string { return m.name }

// build allocates the layers, drawing their initial weights from rng in a
// fixed order (POI, time, cell); Fit goes on to draw negatives from the same
// rng.
func (m *recurrent) build(_, pois, times, rank int, rng *rand.Rand) {
	prefix := strings.ToLower(m.name)
	m.embPOI = nn.NewEmbedding(prefix+".poi", pois, rank, rng)
	m.embTime = nn.NewEmbedding(prefix+".time", times, rank, rng)
	m.cell, m.params = m.newCell(rank, rng)
	m.params["poi.W"], m.params["time.W"] = m.embPOI.W, m.embTime.W
}

// Fit implements Recommender.
func (m *recurrent) Fit(ctx *Context) error {
	if err := seqCheck(ctx); err != nil {
		return err
	}
	rng := train.NewRNG(ctx.Seed)
	m.build(ctx.Train.DimI, ctx.Train.DimJ, ctx.Train.DimK, ctx.Rank, rng.Rand)
	m.dist = ctx.Dist
	seqs := ctx.Sequences()
	groups := layerGroups(m.cell.Params(), m.embPOI, m.embTime)
	if err := fitEngine(ctx, seqLR, groups, trajectories(seqs, func(_ int, seq []Visit) {
		m.roll(seq, func(h []float64, cache any, prev, cur Visit) {
			dH := make([]float64, len(h))
			pairStep(rng.Rand, m.embPOI, m.embTime, cur.TimeIndex, cur.POI, h, dH)
			m.embPOI.Accumulate(prev.POI, m.cell.backward(cache, dH))
		})
	}), rng); err != nil {
		return err
	}
	m.finalH = make([][]float64, len(seqs))
	for i, seq := range seqs {
		m.finalH[i] = m.roll(seq, nil)
	}
	m.fit = true
	return nil
}

// roll runs the cell over seq from the zero state and returns the final
// hidden state. Step t reads the embedding of visit t-1 and the normalized
// time gap and Haversine distance to visit t; learn, when not nil, is then
// handed the step's new hidden state, its cache and the transition. Training,
// the per-user final states and NextTopN all roll through here.
func (m *recurrent) roll(seq []Visit, learn func(h []float64, cache any, prev, cur Visit)) []float64 {
	h, c := make([]float64, m.embPOI.Dim), make([]float64, m.embPOI.Dim)
	for t := 1; t < len(seq); t++ {
		prev, cur := seq[t-1], seq[t]
		dt := float64(cur.TimeIndex-prev.TimeIndex) / float64(m.embTime.N)
		var dd float64
		if m.dist.DMax > 0 {
			dd = m.dist.At(prev.POI, cur.POI) / m.dist.DMax
		}
		var cache any
		h, c, cache = m.cell.step(m.embPOI.Lookup(prev.POI), h, c, dt, dd)
		if learn != nil {
			learn(h, cache, prev, cur)
		}
	}
	return h
}

// Score implements Recommender. Before Fit it returns 0; serving paths reach
// the model through SeqServer, whose methods surface ErrNotFitted instead.
func (m *recurrent) Score(i, j, k int) float64 {
	if !m.fit {
		return 0
	}
	return readout(m.finalH[i], m.embTime.Lookup(k), m.embPOI.Lookup(j))
}

// STAN (Luo et al., WWW 2021) attends over the whole trajectory with
// self-attention instead of a recurrence: the query is the user embedding
// plus the target time embedding, the memory holds every prior visit's
// POI+time embedding, and readout(context, u_i, e_j) scores candidate POIs.
type STAN struct {
	embUser, embPOI, embTime *nn.Embedding
	attn                     *nn.Attention
	params                   map[string][]float64 // the persisted weights by state-file key

	// seqs holds each user's training trajectory so the attention context
	// can be recomputed at serve/score time without the full Context.
	seqs     [][]Visit
	ctxMu    sync.Mutex
	ctxCache map[int64][]float64
	fit      bool
}

// NewSTAN returns the STAN baseline.
func NewSTAN() *STAN { return &STAN{} }

// Name implements Recommender.
func (s *STAN) Name() string { return "STAN" }

// build allocates the layers, drawing their initial weights from rng in a
// fixed order (user, POI, time); Fit goes on to draw negatives from the same
// rng.
func (s *STAN) build(users, pois, times, rank int, rng *rand.Rand) {
	s.embUser = nn.NewEmbedding("stan.user", users, rank, rng)
	s.embPOI = nn.NewEmbedding("stan.poi", pois, rank, rng)
	s.embTime = nn.NewEmbedding("stan.time", times, rank, rng)
	s.attn = &nn.Attention{Dim: rank}
	s.params = map[string][]float64{"user.W": s.embUser.W, "poi.W": s.embPOI.W, "time.W": s.embTime.W}
}

// Fit implements Recommender.
func (s *STAN) Fit(ctx *Context) error {
	if err := seqCheck(ctx); err != nil {
		return err
	}
	rng := train.NewRNG(ctx.Seed)
	s.build(ctx.Train.DimI, ctx.Train.DimJ, ctx.Train.DimK, ctx.Rank, rng.Rand)
	seqs := ctx.Sequences()
	groups := layerGroups(nil, s.embUser, s.embPOI, s.embTime)
	if err := fitEngine(ctx, seqLR, groups, trajectories(seqs, func(i int, seq []Visit) {
		for t := 1; t < len(seq); t++ {
			cur := seq[t]
			out, cache := s.attend(i, cur.TimeIndex, seq[:t])
			dOut := make([]float64, len(out))
			pairStep(rng.Rand, s.embPOI, s.embUser, i, cur.POI, out, dOut)
			dQ, dK, dV := s.attn.Backward(cache, dOut)
			// Query = user + target-time embeddings.
			s.embUser.Accumulate(i, dQ)
			s.embTime.Accumulate(cur.TimeIndex, dQ)
			// Memory vectors = visit POI + visit time embeddings; keys and
			// values share them.
			for v, visit := range seq[:t] {
				dMem := make([]float64, len(out))
				for d := range dMem {
					dMem[d] = dK[v][d] + dV[v][d]
				}
				s.embPOI.Accumulate(visit.POI, dMem)
				s.embTime.Accumulate(visit.TimeIndex, dMem)
			}
		}
	}), rng); err != nil {
		return err
	}
	s.seqs = seqs
	s.ctxCache = make(map[int64][]float64)
	s.fit = true
	return nil
}

// attend runs the attention of user i targeting time unit k over the given
// (non-empty) visit history.
func (s *STAN) attend(i, k int, history []Visit) ([]float64, *nn.AttentionCache) {
	r := s.attn.Dim
	q := make([]float64, r)
	u := s.embUser.Lookup(i)
	tk := s.embTime.Lookup(k)
	for d := 0; d < r; d++ {
		q[d] = u[d] + tk[d]
	}
	mem := make([][]float64, len(history))
	for v, visit := range history {
		mem[v] = make([]float64, r)
		ep := s.embPOI.Lookup(visit.POI)
		et := s.embTime.Lookup(visit.TimeIndex)
		for d := 0; d < r; d++ {
			mem[v][d] = ep[d] + et[d]
		}
	}
	return s.attn.Forward(q, mem, mem)
}

// context returns (cached) the attention context of user i at time k over
// the user's full training trajectory. Safe for concurrent use: the cache is
// mutex-guarded so the serving tier can score in parallel.
func (s *STAN) context(i, k int) []float64 {
	key := int64(i)*int64(s.embTime.N) + int64(k)
	s.ctxMu.Lock()
	if c, ok := s.ctxCache[key]; ok {
		s.ctxMu.Unlock()
		return c
	}
	s.ctxMu.Unlock()
	out := make([]float64, s.attn.Dim)
	if len(s.seqs[i]) > 0 {
		out, _ = s.attend(i, k, s.seqs[i])
	}
	s.ctxMu.Lock()
	s.ctxCache[key] = out
	s.ctxMu.Unlock()
	return out
}

// Score implements Recommender. Before Fit it returns 0; serving paths reach
// the model through SeqServer, whose methods surface ErrNotFitted instead.
func (s *STAN) Score(i, j, k int) float64 {
	if !s.fit {
		return 0
	}
	return readout(s.context(i, k), s.embUser.Lookup(i), s.embPOI.Lookup(j))
}

func seqCheck(ctx *Context) error {
	if ctx.Rank <= 0 {
		return fmt.Errorf("baselines: sequential model needs positive rank, got %d", ctx.Rank)
	}
	if ctx.Dist == nil {
		return fmt.Errorf("baselines: sequential model needs a POI distance matrix")
	}
	return nil
}
