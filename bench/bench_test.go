package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tcss/internal/core"
)

// tinyScale runs every code path of the benchmark at about 1/200 of its size.
var tinyScale = scale{
	frac: 1.0 / 200, scanUsers: 500, scanPOIs: 2048,
	kernelJ: [4]int{256, 512, 1024, 2048}, lbsnUsers: 40, lbsnPOIs: 60, setupReps: 1,
}

func tinyRun(t *testing.T, name string, traced bool, gold *golden) *report {
	t.Helper()
	dir := t.TempDir()
	rep, err := run(runConfig{w: findWorkload(name), seed: 3, seconds: 12, traced: traced, sc: tinyScale,
		dir: dir, spans: filepath.Join(dir, "spans.jsonl"), golden: gold})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the code to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload end to end, verification included, and its
// traced pass, and holds the metric names and units to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	contract := readBenchmarkJSON(t)
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(contract.Workloads), len(workloads))
	}
	for i, m := range contract.EndToEnd {
		want := endToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[want.higher]
		if m.Name != want.name || m.Unit != want.unit || m.Bound != want.bound || m.Better != better {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the benchmark has %+v", i, m, want)
		}
	}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark has %q", i, contract.Workloads[i].Name, w.name)
		}
		rep := tinyRun(t, w.name, false, nil)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted != rep.Planned {
			t.Errorf("%s: correct %v, %d of %d ops failed, %d planned: %v", w.name, rep.Correct, rep.Failed, rep.Attempted, rep.Planned, rep.Errors)
		}
		for _, m := range endToEnd {
			if got, ok := rep.EndToEnd[m.name]; !ok || got.Unit != m.unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, m.name, got)
			}
		}
		if !strings.Contains(rep.resultLine(), `"correct":true`) {
			t.Errorf("%s: result line %s", w.name, rep.resultLine())
		}

		traced := tinyRun(t, w.name, true, nil)
		if !traced.Correct {
			t.Errorf("%s traced: %v", w.name, traced.Errors)
		}
		if len(traced.PerLayer) != len(contract.PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics, BENCHMARK.json lists %d", w.name, len(traced.PerLayer), len(contract.PerLayer))
		}
		for _, m := range contract.PerLayer {
			if got, ok := traced.PerLayer[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s traced: per-layer metric %s = %+v, want unit %s", w.name, m.Name, got, m.Unit)
			}
		}
		checkSpanFile(t, w, traced)
	}
}

// checkSpanFile recomputes the self times from the span file and checks that
// the layers of a request add up to what its client waited.
func checkSpanFile(t *testing.T, w *workload, rep *report) {
	t.Helper()
	spans, err := readSpans(rep.SpanFile)
	if err != nil || len(spans) == 0 {
		t.Fatalf("%s: span file: %d spans, %v", w.name, len(spans), err)
	}
	root := spanClient
	if w.name == "train-fit" {
		root = spanFit
	}
	st := selfTimes(spans)
	var self, dur float64
	for name, vals := range st.Self {
		for _, v := range vals {
			self += v
		}
		if got := median(vals); got != rep.SpanSelfMs[name] {
			t.Errorf("%s: self time of %s from the file %v, reported %v", w.name, name, got, rep.SpanSelfMs[name])
		}
	}
	for _, v := range st.Dur[root] {
		dur += v
	}
	if dur == 0 || math.Abs(self-dur)/dur > 0.05 {
		t.Errorf("%s: self times sum to %v ms, the %s spans to %v ms", w.name, self, root, dur)
	}
}

// TestGoldenMismatchFails pins a run to its own outputs, then corrupts the
// pinned checksum: the run must turn incorrect.
func TestGoldenMismatchFails(t *testing.T) {
	rep := tinyRun(t, "node-scan", false, nil)
	gold := *rep.golden
	gold.GOARCH = "pdp11" // float results are pinned per architecture
	if gold.applies(3, rep.Planned) {
		t.Fatal("a golden of another architecture applies")
	}
	gold = *rep.golden
	if again := tinyRun(t, "node-scan", false, &gold); !again.Correct || again.Notes["golden_applied"] != 1 {
		t.Fatalf("run pinned to its own outputs: correct %v, errors %v", again.Correct, again.Errors)
	}
	gold.Checksum = "0000000000000000"
	again := tinyRun(t, "node-scan", false, &gold)
	if again.Correct || again.Failed == 0 || !strings.Contains(strings.Join(again.Errors, "\n"), "golden mismatch") {
		t.Fatalf("corrupted golden: correct %v, failed %d, errors %v", again.Correct, again.Failed, again.Errors)
	}
	if !strings.Contains(again.resultLine(), `"correct":false`) {
		t.Errorf("result line %s", again.resultLine())
	}
}

// TestWrongAnswerIsAFailedOp serves correct bytes for the wrong key.
func TestWrongAnswerIsAFailedOp(t *testing.T) {
	m, _ := scanModel(1, 50, 200)
	ref := refTopN(m, 7, 3, 10, nil)
	scoreOf := func(poi int) float64 { return m.Score(7, poi, 3) }
	body, _ := json.Marshal(recommendBody{User: 7, T: 3, Results: ref})
	if err := checkRecommend(body, op{user: 7, t: 3}, ref, scoreOf); err != nil {
		t.Fatalf("reference answer rejected: %v", err)
	}
	served := m.TopNScratch(7, 3, 10, nil, core.NewRecScratch(m))
	for i, r := range served {
		if r.POI != ref[i].POI || !near(r.Score, ref[i].Score) {
			t.Fatalf("kernel and reference disagree at %d: %+v vs %+v", i, r, ref[i])
		}
	}
	swapped := append([]scored(nil), ref...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	body, _ = json.Marshal(recommendBody{User: 7, T: 3, Results: swapped})
	if checkRecommend(body, op{user: 7, t: 3}, ref, scoreOf) == nil {
		t.Error("swapped ranks accepted")
	}
	wrong := append([]scored(nil), ref...)
	wrong[9].POI = (ref[9].POI + 1) % m.J
	body, _ = json.Marshal(recommendBody{User: 7, T: 3, Results: wrong})
	if checkRecommend(body, op{user: 7, t: 3}, ref, scoreOf) == nil || checkRecommend(body, op{user: 7, t: 3}, ref, nil) == nil {
		t.Error("wrong POI with the right score accepted")
	}
	body, _ = json.Marshal(recommendBody{User: 7, T: 4, Results: ref})
	if checkRecommend(body, op{user: 7, t: 3}, ref, scoreOf) == nil {
		t.Error("answer for another key accepted")
	}
	if got := refTopN(m, 7, 3, 10, []int{ref[0].POI}); got[0].POI != ref[1].POI {
		t.Errorf("skip list ignored: best is %d, want %d", got[0].POI, ref[1].POI)
	}
}

// TestOpSequenceSeeded: equal seeds plan equal ops, different seeds do not.
func TestOpSequenceSeeded(t *testing.T) {
	plan := func(seed int64) []op {
		e, err := setupNodeWrite(findWorkload("node-write"), seed, 60, tinyScale, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		return e.(*servingEnv).ops
	}
	a, b, c := plan(5), plan(5), plan(6)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed planned different ops")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds planned the same ops")
	}
	var observes int
	for _, o := range a {
		if o.observe {
			observes++
		}
	}
	if observes != 40 {
		t.Errorf("%d observes in 60 ops, want 40", observes)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

// TestSummarizeIgnoresABurst: eight blocks of ten ops, 1 ms each except two
// blocks a noisy neighbour doubled; the lower-quartile block has not seen it.
func TestSummarizeIgnoresABurst(t *testing.T) {
	var samples []sample
	var now time.Duration
	for i := 0; i < 80; i++ {
		lat := time.Millisecond
		if b := i / 10; b == 2 || b == 5 {
			lat = 2 * time.Millisecond
		}
		now += lat
		samples = append(samples, sample{end: now, lat: lat, ok: true})
	}
	got := summarize(samples, now, 10)
	if got.Blocks != 8 || got.P50ms != 1 || got.P95ms != 1 || math.Abs(got.OpsPerS-1000) > 1e-6 {
		t.Errorf("summarize = %+v", got)
	}
	if whole := summarize(samples, now, 40); whole.Blocks != 1 || whole.P95ms != 2 || math.Abs(whole.OpsPerS-800) > 1e-6 {
		t.Errorf("one-block summarize = %+v", whole)
	}
}

func TestSelfTimes(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{10, 30}, {20, 50}, {90, 120}}); got != 50 {
		t.Errorf("covered = %d, want 50 (overlap counted once, clipped to the parent)", got)
	}
	const msec = int64(time.Millisecond)
	spans := []span{
		{Trace: 0, Name: "a", Start: 0, End: 10 * msec},
		{Trace: 0, Name: "b", Parent: "a", Start: 1 * msec, End: 6 * msec},
		{Trace: 0, Name: "b", Parent: "a", Start: 4 * msec, End: 8 * msec}, // overlaps the first b
		{Trace: 0, Name: "c", Parent: "b", Start: 2 * msec, End: 3 * msec},
		{Trace: 1, Name: "b", Parent: "a", Start: 2 * msec, End: 9 * msec}, // another request
		{Trace: -1, Name: "root", Start: 0, End: 20 * msec},
		{Trace: 7, Name: "leaf", Parent: "root", Start: 5 * msec, End: 10 * msec},
	}
	st := selfTimes(spans)
	want := map[string][]float64{"a": {3}, "b": {4, 4, 7}, "c": {1}, "root": {15}, "leaf": {5}}
	for name, w := range want {
		got := append([]float64(nil), st.Self[name]...)
		sort.Float64s(got)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("self times of %s = %v, want %v", name, got, w)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil || !reflect.DeepEqual(back, spans) {
		t.Errorf("span file round trip: %v, %v", back, err)
	}
}

func TestBodyChecksumIgnoresOrder(t *testing.T) {
	a := []opResult{{sum: 1}, {sum: math.MaxUint64}, {sum: 40}}
	b := []opResult{{sum: 40}, {sum: 1}, {sum: math.MaxUint64}}
	if bodyChecksum(a) != 40 || bodyChecksum(a) != bodyChecksum(b) {
		t.Errorf("checksums %d and %d", bodyChecksum(a), bodyChecksum(b))
	}
}

func TestReportPrintsMetricsByName(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	(&report{Workload: "w", EndToEnd: map[string]metric{"setup_s": {1.5, "s"}}, Errors: []string{"boom"}}).print(w)
	w.Flush()
	for _, want := range []string{"setup_s", "1.5000 s", "ERROR: boom"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
	}
}
