package wire_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tcss/internal/registry"
	"tcss/internal/wire"
)

// TestQuantileWithinOneBucket: on the same raw samples a histogram's
// percentiles are never below registry.Percentiles' exact nearest-rank values
// and at most one bucket width (1/8) above them. (An external test package:
// registry imports wire.)
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logNormal := make([]time.Duration, 4000)
	for i := range logNormal {
		logNormal[i] = time.Duration(math.Exp(rng.NormFloat64()*1.2) * float64(800*time.Microsecond))
	}
	constant := make([]time.Duration, 100)
	for i := range constant {
		constant[i] = 1234567 * time.Nanosecond
	}
	for name, samples := range map[string][]time.Duration{
		"log-normal": logNormal, "constant": constant, "one": {3 * time.Second}, "empty": nil,
	} {
		var h wire.Histogram
		ms := make([]float64, len(samples))
		for i, d := range samples {
			h.Observe(d)
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		var exact, got [3]float64
		exact[0], exact[1], exact[2] = registry.Percentiles(ms)
		got[0], got[1], got[2] = h.PercentilesMs()
		for i, p := range []string{"p50", "p95", "p99"} {
			if got[i] < exact[i] || got[i] > exact[i]*1.125 {
				t.Errorf("%s %s = %v ms, exact %v ms: want within [exact, exact·9/8]", name, p, got[i], exact[i])
			}
		}
	}
}
