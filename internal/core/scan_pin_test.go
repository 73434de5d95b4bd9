package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestScanPinned pins, bit for bit, every rank-r score the serving and
// scoring paths produce: TopNScratch and TopNBatch replies (POI ids and score
// bits), ScoreSlab and ScoreCandidates, in all three storage modes, on a
// seeded J = 4 099, rank-10 model with skip lists and a zero-out filter. A
// change to the row-dot kernel or to the scan must leave every digest
// untouched; the differential tests alone would pass a kernel that reorders
// its sum on both sides.
func TestScanPinned(t *testing.T) {
	want := map[string]string{
		"f64/topn":   "d8a6651afda94be667f3bc726376ab0734d98eff4c9d84a8572e6ce0ca3d7dd3",
		"f64/batch":  "d8a6651afda94be667f3bc726376ab0734d98eff4c9d84a8572e6ce0ca3d7dd3",
		"f64/slab":   "6835ec1656e7e983a9a74b2707fb7768ccd14736c63de939893041a043b1181d",
		"f64/cands":  "552c5ff3290bbebf308bc48c19e0f09d02c00e2b1b81d73ae6e973e7b4649838",
		"f32/topn":   "9ee35b4cf32fecaeb2bd074d4203c224316fe9be01c02150179023311987c6c3",
		"f32/batch":  "9ee35b4cf32fecaeb2bd074d4203c224316fe9be01c02150179023311987c6c3",
		"f32/slab":   "6450bb38add90b8d390feba7a7cbc35bdcf72a721846228392b3bfb4a1cced4e",
		"f32/cands":  "bd4fe3f02cc027b34c9b8de038e590573e143f92375665e17020087521ba79d2",
		"int8/topn":  "93f74996b2a2c97ba001c285aa696a22e24581859f77fa8406c902b04a318d7b",
		"int8/batch": "93f74996b2a2c97ba001c285aa696a22e24581859f77fa8406c902b04a318d7b",
		"int8/slab":  "903544545bc628a41e741bd45c2d28610f23ef2c4948ebb02e443cde0a01d4ef",
		"int8/cands": "292cf59660b43002f733e3993349c8070d40bc4449ce4f5109c094d4facf6129",
	}
	const I, J, K, rank = 12, 4099, 5, 10
	base := storageTestModel(t, I, J, K, rank, 36)
	rng := rand.New(rand.NewSource(36))
	filter := make([][]bool, I)
	for i := range filter {
		filter[i] = make([]bool, J)
		for j := range filter[i] {
			filter[i][j] = rng.Intn(5) != 0
		}
	}
	skips := [][]int{nil, {0, 7, 8, 100, 2048, 4098}}
	for i := 0; i < 40; i++ {
		skips[1] = append(skips[1], 101+i*97)
	}
	sort.Ints(skips[1])
	reqs := make([]BatchReq, 6)
	for b := range reqs {
		reqs[b] = BatchReq{User: (3 * b) % I, T: b % K, N: []int{1, 10, 100}[b%3], Skip: skips[b%2]}
	}
	every := make([]int, J)
	for j := range every {
		every[j] = J - 1 - j
	}

	got := map[string]string{}
	digest := func(name string, fill func(word func(uint64))) {
		h := sha256.New()
		fill(func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) })
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	recs := func(word func(uint64), rs []Recommendation) {
		word(uint64(len(rs)))
		for _, r := range rs {
			word(uint64(r.POI))
			word(math.Float64bits(r.Score))
		}
	}
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		m, err := base.ToStorage(mode)
		if err != nil {
			t.Fatal(err)
		}
		m.ZeroOutFilter = filter
		prefix := mode.String() + "/"
		digest(prefix+"topn", func(word func(uint64)) {
			s := NewRecScratch(m)
			for _, rq := range reqs {
				recs(word, m.TopNScratch(rq.User, rq.T, rq.N, rq.Skip, s))
			}
		})
		digest(prefix+"batch", func(word func(uint64)) {
			for _, out := range m.TopNBatch(reqs, NewBatchScratch(m, len(reqs))) {
				recs(word, out)
			}
		})
		digest(prefix+"slab", func(word func(uint64)) {
			out := make([]float64, J*K)
			for _, i := range []int{0, 5, I - 1} {
				m.ScoreSlab(i, out)
				for _, v := range out {
					word(math.Float64bits(v))
				}
			}
		})
		digest(prefix+"cands", func(word func(uint64)) {
			out := make([]float64, J)
			for _, rq := range reqs {
				m.ScoreCandidates(rq.User, rq.T, every, out)
				for _, v := range out {
					word(math.Float64bits(v))
				}
			}
		})
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest %s, want %s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("computed %d digests, pinned %d", len(got), len(want))
	}
}
