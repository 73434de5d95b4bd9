package check

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// update rewrites golden files instead of comparing against them:
//
//	go test ./internal/check -update
//
// The flag is registered by this package, so it is available in every test
// binary that links the harness.
var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Series is a named set of recorded trajectories: loss per epoch, final
// metrics, probe scores — anything float-valued a training run produces
// deterministically.
type Series map[string][]float64

// Add appends values to the named trajectory.
func (s Series) Add(name string, values ...float64) {
	s[name] = append(s[name], values...)
}

// DefaultGoldenRelTol is the comparison tolerance of Golden: loose enough to
// absorb instruction-level regrouping (FMA fusion on other architectures,
// compiler version drift), tight enough that any genuine change to training
// math — a reweighted term, a dropped gradient, a different update order —
// fails loudly.
const DefaultGoldenRelTol = 1e-6

// CompareSeries reports the first mismatch between a recorded and an observed
// Series: a trajectory missing on either side, differing lengths, a
// non-finite value, or any element pair with
// |want−got| > relTol·(1 + |want| + |got|).
func CompareSeries(want, got Series, relTol float64) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, g := want[name], got[name]
		if g == nil {
			return fmt.Errorf("series %q recorded in golden but not produced by this run", name)
		}
		if len(w) != len(g) {
			return fmt.Errorf("series %q length %d, golden has %d", name, len(g), len(w))
		}
		for i := range w {
			if math.IsNaN(g[i]) || math.IsInf(g[i], 0) {
				return fmt.Errorf("series %q[%d] is non-finite: %g", name, i, g[i])
			}
			if diff := math.Abs(w[i] - g[i]); diff > relTol*(1+math.Abs(w[i])+math.Abs(g[i])) {
				return fmt.Errorf("series %q[%d]: got %.12g, golden %.12g (diff %.3g, rel-tol %.3g)",
					name, i, g[i], w[i], diff, relTol)
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("series %q produced by this run but absent from golden (re-record with -update)", name)
		}
	}
	return nil
}

// goldenPath resolves testdata/golden/<name>.json relative to the test's
// working directory (the calling package's directory, per go test).
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// Golden compares got against the recorded testdata/golden/<name>.json at
// DefaultGoldenRelTol, or rewrites the file when the test runs with -update.
func Golden(t testing.TB, name string, got Series) {
	t.Helper()
	GoldenTol(t, name, got, DefaultGoldenRelTol)
}

// GoldenTol is Golden with an explicit comparison tolerance.
func GoldenTol(t testing.TB, name string, got Series, relTol float64) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := writeGolden(path, got); err != nil {
			t.Fatalf("golden %q: %v", name, err)
		}
		t.Logf("golden %q: recorded %d series to %s", name, len(got), path)
		return
	}
	want, err := ReadGolden(path)
	if err != nil {
		t.Fatalf("golden %q: %v (seed it with: go test ./internal/check -run %s -update)", name, err, t.Name())
	}
	if err := CompareSeries(want, got, relTol); err != nil {
		t.Errorf("golden %q: %v", name, err)
	}
}

// ReadGolden loads a recorded Series from disk.
func ReadGolden(path string) (Series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Series
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

func writeGolden(path string, s Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
