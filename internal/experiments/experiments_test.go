package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcss/internal/core"
	"tcss/internal/lbsn"
)

// testOptions is even smaller than QuickOptions so the whole experiment
// suite smoke-tests in seconds.
func testOptions() Options {
	return Options{Scale: 0.12, Epochs: 6, BaselineEpochs: 2, UsersPerEpoch: 0, TrainFrac: 0.8, Seed: 7}
}

func TestLoadPreset(t *testing.T) {
	inst, err := LoadPreset("gowalla", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Train.NNZ() == 0 || len(inst.Test) == 0 {
		t.Fatal("empty instance")
	}
	if inst.Side == nil || inst.Side.Dist.N != inst.Train.DimJ {
		t.Fatal("side info not wired")
	}
	if _, err := LoadPreset("nope", testOptions()); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestAllPresets(t *testing.T) {
	insts, err := AllPresets(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 4 {
		t.Fatalf("got %d presets, want 4", len(insts))
	}
}

func TestEvaluateTCSSRuns(t *testing.T) {
	inst, err := LoadPreset("gmu-5k", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := EvaluateTCSS(inst, TCSSConfig(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || res.HitAtK < 0 || res.HitAtK > 1 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddRow("3", "4")
	s := tb.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "3") {
		t.Fatalf("rendering wrong:\n%s", s)
	}
	if tb.Rows[1][1] != "4" {
		t.Fatal("row 1 column 1 wrong")
	}
}

// Each runner must produce a table with the expected shape. These smoke
// tests run every experiment end-to-end at tiny scale.
func TestTableRunners(t *testing.T) {
	opts := testOptions()
	t.Run("TableI", func(t *testing.T) {
		tb, err := TableI(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 14 { // 13 baselines + TCSS
			t.Fatalf("Table I has %d rows, want 14", len(tb.Rows))
		}
		if tb.Rows[13][0] != "TCSS" {
			t.Fatal("TCSS must be the last row")
		}
		assertMetricCells(t, tb, 1)
	})
	t.Run("TableII", func(t *testing.T) {
		tb, err := TableII(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 7 {
			t.Fatalf("Table II has %d rows, want 7", len(tb.Rows))
		}
		if tb.Rows[6][0] != "Full-Fledged TCSS" {
			t.Fatal("full model must be the last ablation row")
		}
		assertMetricCells(t, tb, 1)
	})
	t.Run("TableIII", func(t *testing.T) {
		tb, err := TableIII(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 5 {
			t.Fatalf("Table III has %d rows, want 5", len(tb.Rows))
		}
		assertMetricCells(t, tb, 1)
	})
	t.Run("TableIV", func(t *testing.T) {
		tb, err := TableIV(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 3 {
			t.Fatalf("Table IV has %d rows, want 3", len(tb.Rows))
		}
	})
}

func TestFigureRunners(t *testing.T) {
	opts := testOptions()
	cases := []struct {
		name string
		run  func(Options) (*Table, error)
		rows int // 0 = only non-empty
	}{
		{"Fig4", Fig4, 12}, // 4 categories × 3 granularities
		{"Fig5", Fig5, 12},
		{"Fig6", Fig6, 3},
		{"Fig7", Fig7, 4},
		{"Fig8", Fig8, 8},
		{"Fig9", Fig9, 0},
		{"Fig10", Fig10, 15}, // 3 datasets × 5 ranks
		{"Fig11", Fig11, 15}, // 3 datasets × 5 lambdas
		{"Fig12", Fig12, 3},
		{"Fig13", Fig13, 12}, // one row per month
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rows > 0 && len(tb.Rows) != tc.rows {
				t.Fatalf("%s has %d rows, want %d", tc.name, len(tb.Rows), tc.rows)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", tc.name)
			}
		})
	}
}

func TestAblationRunners(t *testing.T) {
	opts := testOptions()
	cases := []struct {
		name string
		run  func(Options) (*Table, error)
		rows int
	}{
		{"Alpha", AblationAlpha, 6},
		{"Entropy", AblationEntropy, 2},
		{"Subsampling", AblationUserSubsampling, 4},
		{"Granularity", AblationGranularity, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) != tc.rows {
				t.Fatalf("%s has %d rows, want %d", tc.name, len(tb.Rows), tc.rows)
			}
		})
	}
}

func TestTableCSVExport(t *testing.T) {
	tb := &Table{Title: "Table X: Weights (w+, w-)", Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	if got := tb.SlugTitle(); got != "table-x-weights-w-w" {
		t.Fatalf("SlugTitle = %q", got)
	}
	dir := t.TempDir()
	path, err := tb.ExportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n"
	if string(data) != want {
		t.Fatalf("CSV content %q, want %q", data, want)
	}
}

func TestInstanceCountsCoverTrain(t *testing.T) {
	inst, err := LoadPreset("gmu-5k", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Counts.NNZ() != inst.Train.NNZ() {
		t.Fatalf("counts cover %d cells, train has %d", inst.Counts.NNZ(), inst.Train.NNZ())
	}
	for _, e := range inst.Counts.Entries() {
		if e.Val < 1 {
			t.Fatalf("count %g below 1 at (%d,%d,%d)", e.Val, e.I, e.J, e.K)
		}
		if !inst.Train.Has(e.I, e.J, e.K) {
			t.Fatal("count cell not in train")
		}
	}
}

// assertMetricCells checks every numeric cell parses and lies in a sane
// range for Hit/MRR-style metrics.
func assertMetricCells(t *testing.T, tb *Table, firstCol int) {
	t.Helper()
	for ri, row := range tb.Rows {
		for ci := firstCol; ci < len(row); ci++ {
			v, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				continue // label cells like "(0.9, 0.1)"
			}
			if v < -1e-9 || v > 10 {
				t.Fatalf("row %d col %d: implausible metric %g", ri, ci, v)
			}
		}
	}
}

func TestMeasureLossTimings(t *testing.T) {
	inst, err := LoadPreset("gmu-5k", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One timed call per side loses to any scheduler stall on a shared host,
	// so each side keeps the fastest of several interleaved calls.
	var naive, rewritten time.Duration
	for run := 0; run < 7; run++ {
		lt := MeasureLossTimings(inst, 4, 1)
		if lt.Naive <= 0 || lt.NegSample <= 0 || lt.Rewritten <= 0 {
			t.Fatalf("timings must be positive: %+v", lt)
		}
		if run == 0 || lt.Naive < naive {
			naive = lt.Naive
		}
		if run == 0 || lt.Rewritten < rewritten {
			rewritten = lt.Rewritten
		}
	}
	// The rewritten loss must beat the naive triple loop even at tiny scale.
	if rewritten >= naive {
		t.Fatalf("rewritten loss (%v) must be faster than naive (%v)", rewritten, naive)
	}
}

func TestBlockMeanSimilarity(t *testing.T) {
	// A circulant similarity with strong diagonal band has positive score.
	k := 12
	sim := make([][]float64, k)
	for a := range sim {
		sim[a] = make([]float64, k)
		for b := range sim[a] {
			d := (a - b + k) % k
			if d > k/2 {
				d = k - d
			}
			sim[a][b] = 1 - float64(d)/float64(k/2)
		}
	}
	if blockMeanSimilarity(sim) <= 0 {
		t.Fatal("banded similarity must have positive block score")
	}
	// Uniform similarity scores zero.
	for a := range sim {
		for b := range sim[a] {
			sim[a][b] = 0.5
		}
	}
	if blockMeanSimilarity(sim) != 0 {
		t.Fatal("uniform similarity must score 0")
	}
}

func TestCategoryInstances(t *testing.T) {
	insts, err := categoryInstances(testOptions(), lbsn.Month)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 4 {
		t.Fatalf("got %d category instances", len(insts))
	}
	for _, inst := range insts {
		if inst.Train.DimK != 12 {
			t.Fatal("month granularity expected")
		}
	}
}

func TestTCSSConfigAppliesOptions(t *testing.T) {
	opts := testOptions()
	opts.Epochs = 3
	opts.UsersPerEpoch = 5
	cfg := TCSSConfig(opts)
	if cfg.Epochs != 3 || cfg.UsersPerEpoch != 5 || cfg.Seed != opts.Seed {
		t.Fatalf("TCSSConfig did not apply options: %+v", cfg)
	}
	if cfg.Rank != core.DefaultConfig().Rank {
		t.Fatal("rank must come from the default config")
	}
}

// blockMeanSimilarity measures how "blocky" a time-factor similarity matrix
// is: the mean cosine similarity of adjacent time units minus that of units
// half a period apart. Strong seasonality gives a large positive value; it is
// the scalar summary of the Figure 6/7 heatmaps.
func blockMeanSimilarity(sim [][]float64) float64 {
	k := len(sim)
	if k < 4 {
		return 0
	}
	var adj, far float64
	for a := 0; a < k; a++ {
		adj += sim[a][(a+1)%k]
		far += sim[a][(a+k/2)%k]
	}
	return (adj - far) / float64(k)
}
