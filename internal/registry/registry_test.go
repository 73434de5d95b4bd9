package registry

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"tcss/internal/core"
	"tcss/internal/wire"
)

// fakeScorer is a recommend-only scorer with fixed dims.
type fakeScorer struct {
	name string
	gen  uint64
	u, p int
	k    int
}

func (f *fakeScorer) Name() string          { return f.name }
func (f *fakeScorer) Generation() uint64    { return f.gen }
func (f *fakeScorer) Dims() (int, int, int) { return f.u, f.p, f.k }
func (f *fakeScorer) Recommend(user, t, n int) ([]core.Recommendation, uint64, error) {
	out := make([]core.Recommendation, n)
	for i := range out {
		out[i] = core.Recommendation{POI: (user + i) % f.p, Score: 1 - float64(i)/10}
	}
	return out, f.gen, nil
}

// fakeNextScorer adds next-POI capability.
type fakeNextScorer struct{ fakeScorer }

func (f *fakeNextScorer) Next(user int, seq []Event, t, n int) ([]core.Recommendation, uint64, error) {
	out := make([]core.Recommendation, n)
	for i := range out {
		out[i] = core.Recommendation{POI: (seq[len(seq)-1].POI + i) % f.p, Score: 1 - float64(i)/10}
	}
	return out, f.gen, nil
}

func newTestRegistry(t *testing.T, abFrac float64, shadow string) *Registry {
	t.Helper()
	r := New()
	if err := r.RegisterPrimary(&fakeScorer{name: "tcss", gen: 1, u: 100, p: 50, k: 12}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&fakeNextScorer{fakeScorer{name: "STRNN", gen: 1, u: 100, p: 50, k: 12}}); err != nil {
		t.Fatal(err)
	}
	if abFrac > 0 {
		if err := r.SetAB("STRNN", abFrac); err != nil {
			t.Fatal(err)
		}
	}
	if shadow != "" {
		if err := r.SetShadow(shadow); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestABAssignDeterministicAndBalanced(t *testing.T) {
	// Pure function of the user id: stable within and across "restarts"
	// (there is no process state to consult at all, but pin a golden sample
	// so an accidental hash change shows up as a test failure).
	const frac = 0.5
	var golden []bool
	for user := 0; user < 16; user++ {
		golden = append(golden, ABAssign(user, frac))
	}
	for user := 0; user < 16; user++ {
		if ABAssign(user, frac) != golden[user] {
			t.Fatalf("user %d: assignment not deterministic", user)
		}
	}
	// Both arms must be populated, and the split must be near the fraction.
	var b int
	const N = 20000
	for user := 0; user < N; user++ {
		if ABAssign(user, frac) {
			b++
		}
	}
	if got := float64(b) / N; math.Abs(got-frac) > 0.02 {
		t.Fatalf("arm-B fraction = %g, want ≈%g", got, frac)
	}
	// Edges.
	if ABAssign(7, 0) {
		t.Fatal("frac 0 must never assign arm B")
	}
	if !ABAssign(7, 1) {
		t.Fatal("frac 1 must always assign arm B")
	}
}

func TestRouteDeterministicAcrossInstances(t *testing.T) {
	r1 := newTestRegistry(t, 0.5, "")
	r2 := newTestRegistry(t, 0.5, "")
	seen := map[Arm]bool{}
	for user := 0; user < 64; user++ {
		d1, err := r1.Route(user, "")
		if err != nil {
			t.Fatal(err)
		}
		d2, err := r2.Route(user, "")
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("user %d routes differently across instances: %+v vs %+v", user, d1, d2)
		}
		seen[d1.Arm] = true
		switch d1.Arm {
		case ArmA:
			if d1.Model != "tcss" {
				t.Fatalf("arm A must be the primary, got %q", d1.Model)
			}
		case ArmB:
			if d1.Model != "STRNN" {
				t.Fatalf("arm B must be STRNN, got %q", d1.Model)
			}
		default:
			t.Fatalf("unexpected arm %q with A/B enabled", d1.Arm)
		}
	}
	if !seen[ArmA] || !seen[ArmB] {
		t.Fatalf("both arms must be populated over 64 users, saw %v", seen)
	}
}

func TestRouteOverrideAndErrors(t *testing.T) {
	r := newTestRegistry(t, 0.5, "")
	d, err := r.Route(3, "STRNN")
	if err != nil || d.Model != "STRNN" || d.Arm != ArmOverride {
		t.Fatalf("override route = %+v, %v", d, err)
	}
	if _, err := r.Route(3, "nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown override err = %v, want ErrUnknownModel", err)
	}
	if _, err := r.RouteNext(3, "nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown next override err = %v, want ErrUnknownModel", err)
	}
	// tcss exists but cannot score sequences.
	if _, err := r.RouteNext(3, "tcss"); !errors.Is(err, ErrNotNextCapable) {
		t.Fatalf("non-next override err = %v, want ErrNotNextCapable", err)
	}
	// Policy-routed next goes to the sequential default.
	d, err = r.RouteNext(3, "")
	if err != nil || d.Model != "STRNN" {
		t.Fatalf("next route = %+v, %v", d, err)
	}
}

func TestRouteNextNoSequentialModel(t *testing.T) {
	r := New()
	if err := r.RegisterPrimary(&fakeScorer{name: "tcss", gen: 1, u: 10, p: 5, k: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RouteNext(0, ""); !errors.Is(err, ErrNoNextModel) {
		t.Fatalf("err = %v, want ErrNoNextModel", err)
	}
}

func TestShadowNeverShadowsItself(t *testing.T) {
	r := newTestRegistry(t, 0.5, "STRNN")
	sawShadow := false
	for user := 0; user < 64; user++ {
		d, err := r.Route(user, "")
		if err != nil {
			t.Fatal(err)
		}
		if d.Model == "STRNN" && d.Shadow != "" {
			t.Fatalf("user %d: model shadows itself: %+v", user, d)
		}
		if d.Model == "tcss" {
			if d.Shadow != "STRNN" {
				t.Fatalf("user %d: expected shadow STRNN, got %+v", user, d)
			}
			sawShadow = true
		}
	}
	if !sawShadow {
		t.Fatal("no request carried a shadow decision")
	}
	// Next-path shadow requires next capability: shadowing tcss is dropped.
	r2 := newTestRegistry(t, 0, "tcss")
	d, err := r2.RouteNext(1, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Shadow != "" {
		t.Fatalf("next decision shadows non-next-capable model: %+v", d)
	}
}

func TestFinalizeValidation(t *testing.T) {
	r := New()
	if err := r.Finalize(); err == nil {
		t.Fatal("Finalize without a primary must fail")
	}

	r = New()
	if err := r.RegisterPrimary(&fakeScorer{name: "tcss", gen: 1, u: 10, p: 5, k: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetAB("ghost", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Finalize(); err == nil {
		t.Fatal("Finalize with unregistered A/B model must fail")
	}

	r = New()
	if err := r.RegisterPrimary(&fakeScorer{name: "tcss", gen: 1, u: 10, p: 5, k: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&fakeScorer{name: "other", gen: 1, u: 11, p: 5, k: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Finalize(); err == nil {
		t.Fatal("Finalize with disagreeing dims must fail")
	}

	// Unfitted models (zero dims) are registrable: they answer 503.
	r = New()
	if err := r.RegisterPrimary(&fakeScorer{name: "tcss", gen: 1, u: 10, p: 5, k: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&fakeNextScorer{fakeScorer{name: "STRNN"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Finalize(); err != nil {
		t.Fatalf("Finalize with unfitted model: %v", err)
	}
	if d, err := r.RouteNext(0, ""); err != nil || d.Model != "STRNN" {
		t.Fatalf("unfitted next default: %+v, %v", d, err)
	}
}

func TestStatsAndShadowAccounting(t *testing.T) {
	r := newTestRegistry(t, 0, "STRNN")
	r.RecordServe("tcss", false, false, 2*time.Millisecond)
	r.RecordServe("tcss", false, true, 0)
	r.RecordServe("STRNN", true, false, 3*time.Millisecond)
	r.RecordNotReady("STRNN")
	r.RecordShadow("STRNN", 0.8, false)
	r.RecordShadow("STRNN", 1.0, true)

	stats, info := r.Stats()
	if info.Primary != "tcss" || info.Shadow != "STRNN" || info.NextDefault != "STRNN" {
		t.Fatalf("routing info = %+v", info)
	}
	byName := map[string]*wire.ModelStats{}
	for _, ms := range stats {
		byName[ms.Name] = ms
	}
	tc := byName["tcss"]
	if tc.Requests.Load() != 2 || tc.CacheHits.Load() != 1 || tc.P50ms <= 0 {
		t.Fatalf("tcss stats = %+v", tc)
	}
	sr := byName["STRNN"]
	if sr.NextRequests.Load() != 1 || sr.NotReady.Load() != 1 || sr.NextP50ms <= 0 {
		t.Fatalf("STRNN stats = %+v", sr)
	}
	if sr.Shadow.Scored != 2 || math.Abs(sr.Shadow.AgreementAvg-0.9) > 1e-9 || sr.Shadow.ExactFrac != 0.5 {
		t.Fatalf("shadow stats = %+v", sr.Shadow)
	}
}

func TestShadowGoBoundedAndDrains(t *testing.T) {
	r := newTestRegistry(t, 0, "")
	block := make(chan struct{})
	var scheduled int
	for i := 0; i < 10; i++ {
		if r.ShadowGo(func() { <-block }) {
			scheduled++
		}
	}
	if scheduled != cap(r.shadowSem) {
		t.Fatalf("scheduled %d shadows, want %d", scheduled, cap(r.shadowSem))
	}
	_, info := r.Stats()
	if info.ShadowDropped != int64(10-scheduled) {
		t.Fatalf("dropped = %d, want %d", info.ShadowDropped, 10-scheduled)
	}
	close(block)
	r.DrainShadows()
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		a, b  []int
		frac  float64
		exact bool
	}{
		{[]int{1, 2, 3}, []int{3, 2, 1}, 1, true},
		{[]int{1, 2, 3}, []int{1, 2, 4}, 2.0 / 3, false},
		{[]int{1, 2}, []int{3, 4}, 0, false},
		{nil, nil, 1, true},
		{nil, []int{1}, 0, false},
	}
	for i, c := range cases {
		frac, exact := Overlap(c.a, c.b)
		if math.Abs(frac-c.frac) > 1e-12 || exact != c.exact {
			t.Fatalf("case %d: Overlap = (%g,%v), want (%g,%v)", i, frac, exact, c.frac, c.exact)
		}
	}
}

func ExampleABAssign() {
	// The assignment depends only on the user id and fraction.
	fmt.Println(ABAssign(42, 0.5) == ABAssign(42, 0.5))
	// Output: true
}

// TestPercentilesNearestRank pins the rank rule loadgen's client-side report
// uses on raw samples and wire.Histogram.Quantile follows on buckets: the
// smallest sample with at least p of the samples at or below it. (The floor
// rule it replaced reported the minimum of three samples as their p50.)
func TestPercentilesNearestRank(t *testing.T) {
	if p50, p95, p99 := Percentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Fatalf("empty window: %v %v %v, want zeros", p50, p95, p99)
	}
	if p50, p95, p99 := Percentiles([]float64{3, 1, 2}); p50 != 2 || p95 != 3 || p99 != 3 {
		t.Fatalf("three samples: p50 %v p95 %v p99 %v, want 2 3 3", p50, p95, p99)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100 … 1, unsorted
	}
	if p50, p95, p99 := Percentiles(hundred); p50 != 50 || p95 != 95 || p99 != 99 {
		t.Fatalf("1..100: p50 %v p95 %v p99 %v, want 50 95 99", p50, p95, p99)
	}
}
