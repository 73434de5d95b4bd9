package core

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTopNBatchBitIdentical: every request in a coalesced batch must return
// exactly what the same request computes through the per-request path, in
// every storage mode — mixed users, time slices, Ns, and skip lists.
func TestTopNBatchBitIdentical(t *testing.T) {
	base := storageTestModel(t, 29, 41, 6, 10, 11)
	filter := make([][]bool, base.I)
	for i := range filter {
		filter[i] = make([]bool, base.J)
		for j := range filter[i] {
			filter[i][j] = (i*7+j)%5 != 0
		}
	}
	rng := rand.New(rand.NewSource(99))
	for _, withFilter := range []bool{false, true} {
		base.ZeroOutFilter = nil
		if withFilter {
			base.ZeroOutFilter = filter
		}
		for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
			m, err := base.ToStorage(mode)
			if err != nil {
				t.Fatal(err)
			}
			// Random batches of varying size, including size 1 and empty skip.
			for trial := 0; trial < 20; trial++ {
				B := 1 + rng.Intn(40)
				reqs := make([]BatchReq, B)
				for b := range reqs {
					var skip []int
					for j := 0; j < m.J; j++ {
						if rng.Float64() < 0.15 {
							skip = append(skip, j)
						}
					}
					sort.Ints(skip)
					reqs[b] = BatchReq{
						User: rng.Intn(m.I),
						T:    rng.Intn(m.K),
						N:    rng.Intn(12), // includes N=0 → nil result
						Skip: skip,
					}
				}
				got := m.TopNBatch(reqs, NewBatchScratch(m, B))
				sc := NewRecScratch(m)
				for b, rq := range reqs {
					want := m.TopNScratch(rq.User, rq.T, rq.N, rq.Skip, sc)
					if len(got[b]) != len(want) {
						t.Fatalf("%v filter=%v trial %d req %d: %d results, scalar path %d",
							mode, withFilter, trial, b, len(got[b]), len(want))
					}
					for p := range want {
						if got[b][p] != want[p] {
							t.Fatalf("%v filter=%v trial %d req %d rank %d: batch %+v, scalar %+v",
								mode, withFilter, trial, b, p, got[b][p], want[p])
						}
					}
				}
			}
		}
	}
}

// TestTopNBatchScratchReuse: a scratch must be reusable across batches of
// different sizes and models without leaking state between calls.
func TestTopNBatchScratchReuse(t *testing.T) {
	m := storageTestModel(t, 13, 17, 4, 6, 12)
	s := NewBatchScratch(nil, 0)
	sc := NewRecScratch(m)
	for _, B := range []int{5, 1, 9, 3} {
		reqs := make([]BatchReq, B)
		for b := range reqs {
			reqs[b] = BatchReq{User: b % m.I, T: b % m.K, N: 4, Skip: []int{0, 5}}
		}
		got := m.TopNBatch(reqs, s)
		for b, rq := range reqs {
			want := m.TopNScratch(rq.User, rq.T, rq.N, rq.Skip, sc)
			for p := range want {
				if got[b][p] != want[p] {
					t.Fatalf("batch %d req %d rank %d: %+v vs %+v", B, b, p, got[b][p], want[p])
				}
			}
		}
	}
}

func TestTopNBatchPanicsOutOfRange(t *testing.T) {
	m := storageTestModel(t, 5, 7, 3, 4, 13)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range request must panic like TopNScratch")
		}
	}()
	m.TopNBatch([]BatchReq{{User: 99, T: 0, N: 3}}, NewBatchScratch(m, 1))
}

// BenchmarkTopNBatch quantifies the batch-scoring win per storage mode: the
// scan reads each POI tile from memory once and scores it for every request
// of the batch (mat.DotRows per request) while it is cache-resident, so the
// largest gains are where the slab stream, not the arithmetic, bounds a lone
// request. The bit-identity contract (TestTopNBatchBitIdentical) pins both
// sides to the same floating-point results.
func BenchmarkTopNBatch(b *testing.B) {
	base := NewModel(512, 32768, 12, 32)
	rng := rand.New(rand.NewSource(1))
	for _, d := range [][]float64{base.U1.Data, base.U2.Data, base.U3.Data, base.H} {
		for i := range d {
			d[i] = rng.NormFloat64() * 0.3
		}
	}
	const B, N = 32, 10
	reqs := make([]BatchReq, B)
	for i := range reqs {
		reqs[i] = BatchReq{User: i * 16 % base.I, T: i % base.K, N: N}
	}
	for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
		m := base
		if mode != StorageFloat64 {
			var err error
			m, err = base.ToStorage(mode)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(mode.String()+"/batched", func(b *testing.B) {
			s := NewBatchScratch(m, B)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				m.TopNBatch(reqs, s)
			}
		})
		b.Run(mode.String()+"/per-request", func(b *testing.B) {
			s := NewRecScratch(m)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for _, rq := range reqs {
					m.TopNScratch(rq.User, rq.T, rq.N, rq.Skip, s)
				}
			}
		})
	}
	// The bench module's core.topn_batch8_ms_per_req.j128k shape; ns/req is
	// comparable with BenchmarkTopNScratch/j128k's ns/op.
	models := scanBenchModels(b)
	for _, mode := range scanBenchModes {
		m := models[mode]
		b.Run("j128k/"+mode.String(), func(b *testing.B) {
			reqs := make([]BatchReq, 8)
			s := NewBatchScratch(m, len(reqs))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := range reqs {
					reqs[i] = BatchReq{User: (n*8 + i) * 7 % m.I, T: (n + i) % m.K, N: N}
				}
				m.TopNBatch(reqs, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
