package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an ascending
// slice, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is how the benchmark's driver measures a metric's spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one executed op: when it ended (since the measured phase began),
// how long the caller waited for it, and whether it succeeded.
type sample struct {
	end time.Duration
	lat time.Duration
	ok  bool
}

// summary holds the latency and throughput statistics of one measured phase.
type summary struct {
	OpsPerS float64
	P50ms   float64
	P95ms   float64
	P99ms   float64 // whole phase, report-only
	Blocks  int
}

// blockQuantile is the across-block quantile summarize reports. Interference
// from other tenants of the machine only ever adds time, and it arrives in
// bursts of seconds (README, noise rule 6), so the run is cut into blocks of
// consecutive ops (0.1–1 s each), each block gets its own p50 / p95 /
// throughput, and the reported value is that of the 5th-percentile block for
// times and the 95th-percentile block for throughput: the speed of the
// program in the calmest stretches of the run, which is the quantity a code
// change moves. What this hides — a stall of the program's own that hits
// fewer than 19 blocks in 20 — is left to slo_frac and client.op_p99_ms,
// which look at every op.
const blockQuantile = 0.05

// summarize cuts the phase into blocks of block consecutive completions and
// reports the blockQuantile block of each statistic. A trailing partial block
// is dropped; a phase shorter than four blocks is one block.
func summarize(samples []sample, wall time.Duration, block int) summary {
	if len(samples) == 0 || wall <= 0 {
		return summary{}
	}
	byEnd := append([]sample(nil), samples...)
	sort.Slice(byEnd, func(a, b int) bool { return byEnd[a].end < byEnd[b].end })
	stats := func(part []sample, span time.Duration) (rate, p50, p95, p99 float64) {
		lats := make([]float64, len(part))
		for i, s := range part {
			lats[i] = ms(s.lat)
		}
		sort.Float64s(lats)
		return float64(len(part)) / span.Seconds(), percentile(lats, 0.50), percentile(lats, 0.95), percentile(lats, 0.99)
	}
	whole := summary{Blocks: 1}
	whole.OpsPerS, whole.P50ms, whole.P95ms, whole.P99ms = stats(byEnd, wall)
	n := len(byEnd) / block
	if n < 4 {
		return whole
	}
	var rate, p50, p95 []float64
	var from time.Duration
	for b := 0; b < n; b++ {
		part := byEnd[b*block : (b+1)*block]
		to := part[block-1].end
		r, a, c, _ := stats(part, to-from)
		rate, p50, p95 = append(rate, r), append(p50, a), append(p95, c)
		from = to
	}
	return summary{
		OpsPerS: percentile(sortedCopy(rate), 1-blockQuantile),
		P50ms:   percentile(sortedCopy(p50), blockQuantile),
		P95ms:   percentile(sortedCopy(p95), blockQuantile),
		P99ms:   whole.P99ms,
		Blocks:  n,
	}
}
