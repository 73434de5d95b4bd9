// Command bench is the repository's one benchmark: four fixed-work workloads
// over the whole stack (kernel, serve node, cluster gateway, trainer), six
// end-to-end metrics each, and a traced pass that splits time by layer. It
// changes nothing outside its directory: every layer is measured from outside
// through its public functions. README.md has the metric and workload tables.
//
//	bash bench/run.sh -workload node-scan -seed 1            # one workload
//	bash bench/run.sh -workload node-scan -seed 1 -trace 1   # its traced pass
//	bash bench/run.sh -all -json out.jsonl                   # all four
//	bash bench/run.sh -sets 2 -runs 10                       # noise self-test
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. BENCHMARK.json lists the names; a test keeps
// the two in step.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the end-to-end metrics with their units and the share of
// the parent's median by which each may get worse (BENCHMARK.json's bound).
var endToEnd = []struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_p95_ms", "ms", false, 0.25},
	{"slo_frac", "share", true, 0.01},
	{"peak_rss_mb", "MB", false, 0.10},
}

// envInfo describes the machine a run was taken on.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel,omitempty"`
}

// report is the versioned machine-readable result of one run (-json).
type report struct {
	Schema       int                `json:"schema"`
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Traced       bool               `json:"traced"`
	Env          envInfo            `json:"env"`
	Planned      int                `json:"ops_planned"`
	Attempted    int                `json:"ops_attempted"`
	Succeeded    int                `json:"ops_succeeded"`
	Failed       int                `json:"ops_failed"`
	Correct      bool               `json:"correct"`
	Errors       []string           `json:"errors,omitempty"`
	PhaseSeconds float64            `json:"phase_s"`
	SetupSeconds []float64          `json:"setups_s"`
	SpinMs       [2]float64         `json:"machine_spin_ms"`   // before, after the measured phase
	CanaryMs     float64            `json:"machine_canary_ms"` // median during the measured phase
	Calibration  float64            `json:"calibration"`       // canaryRefMs / CanaryMs; end-to-end times are measured × this
	EndToEnd     map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric  `json:"per_layer,omitempty"`
	Notes        map[string]float64 `json:"notes,omitempty"`
	SpanFile     string             `json:"span_file,omitempty"`
	SpanSelfMs   map[string]float64 `json:"span_self_p50_ms,omitempty"`

	golden *golden // the outputs a golden of this run would pin
}

const reportSchema = 1

func environment() envInfo {
	e := envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

var spinSink uint64

// spin is the machine-speed canary: a fixed integer loop (≈ 50 ms here) that
// touches no repository code. A run whose canary moved by more than a tenth
// between its two readings was taken on a disturbed machine.
func spin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 25_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(t0))
}

// cpuTime is the user + system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the high-water resident set of the process: VmHWM where /proc
// has it, else getrusage's maximum (kilobytes on Linux).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	sc      scale
	dir     string  // scratch directory for model and span files
	spans   string  // span file of a traced pass
	golden  *golden // pins the outputs when it applies; nil for none
}

// run sets the workload up, executes its fixed ops once, verifies the
// outputs and fills in the report. The returned error is a harness failure
// (set-up, I/O); wrong outputs and violated guards land in report.Errors.
func run(cfg runConfig) (*report, error) {
	w := cfg.w
	rep := &report{Schema: reportSchema, Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Env: environment()}
	rep.Planned = w.plannedOps(cfg.seconds, cfg.sc)
	var rec *recorder
	if cfg.traced {
		// The traced pass replays the first quarter of the op sequence.
		rep.Planned = (rep.Planned + 3) / 4
		block := w.traceBlock
		if rep.Planned < 4*block { // a scaled-down run still traces half its ops
			block = (rep.Planned + 3) / 4
		}
		rec = newRecorder(block)
	}

	// Set up setupReps times; the last one is measured, setup_s is the median.
	can, err := newCanary()
	if err != nil {
		return nil, err
	}
	defer can.close()
	var e env
	for r := 0; r < cfg.sc.setupReps; r++ {
		ops := 0
		if r == cfg.sc.setupReps-1 {
			ops = rep.Planned
		}
		t0 := time.Now()
		cur, err := w.setup(w, cfg.seed, ops, cfg.sc, cfg.dir, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rep.SetupSeconds = append(rep.SetupSeconds, time.Since(t0).Seconds())
		if ops == 0 {
			cur.close()
			debug.FreeOSMemory()
		}
		e = cur
	}
	defer e.close()

	rep.SpinMs[0] = spin()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	inPhase := len(can.samples)
	ph, err := e.measure(rec, can)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	rep.SpinMs[1] = spin()
	rep.PhaseSeconds, rep.Attempted = ph.wall.Seconds(), len(ph.samples)
	rep.CanaryMs = median(can.samples[inPhase:])
	rep.Calibration = canaryRefMs / rep.CanaryMs

	fail := func(format string, args ...any) { rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...)) }
	if len(ph.samples) != rep.Planned {
		fail("executed %d ops, planned %d", len(ph.samples), rep.Planned)
	}
	// A phase far from the length it was sized for measured a different
	// workload (a mis-sized rate, a stalled machine).
	if lo, hi := float64(cfg.seconds)/3, float64(cfg.seconds)*3; !cfg.traced && cfg.sc.frac == 1 && (rep.PhaseSeconds < lo || rep.PhaseSeconds > hi) {
		fail("measured phase took %.1f s, outside %.0f–%.0f s", rep.PhaseSeconds, lo, hi)
	}
	bad := make([]bool, len(ph.samples))
	got, err := e.verify(ph, bad)
	if err != nil {
		fail("%v", err)
	} else {
		got.Schema, got.GOARCH = 1, runtime.GOARCH
	}
	// The limit is held against latencies at the reference machine speed,
	// like every other time the run reports.
	var within int
	for i, s := range ph.samples {
		if !s.ok || bad[i] {
			rep.Failed++
		} else if time.Duration(float64(s.lat)*rep.Calibration) <= w.limit {
			within++
		}
	}
	ph.notes["golden_applied"] = 0
	if err == nil && cfg.golden.applies(cfg.seed, rep.Planned) {
		ph.notes["golden_applied"] = 1
		if err := cfg.golden.compare(got); err != nil {
			fail("%v", err)
		}
	}
	if len(rep.Errors) > 0 && rep.Failed == 0 {
		rep.Failed = 1 // wrong as a whole: no single op to blame
	}
	rep.Succeeded = rep.Attempted - rep.Failed
	rep.Correct = rep.Failed == 0
	rep.Notes, rep.golden = ph.notes, got

	sum := summarize(ph.samples, ph.wall, w.block)
	if !cfg.traced {
		// Times are reported at the reference machine speed (canary.go).
		f := rep.Calibration
		rep.EndToEnd = map[string]metric{
			"setup_s":     {median(rep.SetupSeconds) * f, "s"},
			"ops_per_s":   {sum.OpsPerS / f, "1/s"},
			"op_p50_ms":   {sum.P50ms * f, "ms"},
			"op_p95_ms":   {sum.P95ms * f, "ms"},
			"slo_frac":    {float64(within) / float64(rep.Attempted), "share"},
			"peak_rss_mb": {peakRSSMB() - canaryMB, "MB"}, // net of the harness's own canary table
		}
		return rep, nil
	}

	// Traced pass: spans to the file, the table from the file, then the
	// probes of every layer.
	rep.SpanFile = cfg.spans
	if err := writeSpans(cfg.spans, rec.spans); err != nil {
		return nil, err
	}
	spans, err := readSpans(cfg.spans)
	if err != nil {
		return nil, err
	}
	st := selfTimes(spans)
	rep.SpanSelfMs = make(map[string]float64)
	for name, self := range st.Self {
		rep.SpanSelfMs[name] = median(self)
	}
	var traced, untraced []float64
	for i, s := range ph.samples {
		if rec.traced(i) {
			traced = append(traced, ms(s.lat))
		} else {
			untraced = append(untraced, ms(s.lat))
		}
	}
	ops := float64(len(ph.samples))
	layer, err := probes(cfg.seed, cfg.sc, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layer["client.op_p99_ms"] = metric{sum.P99ms, "ms"}
	layer["proc.cpu_ms_per_op"] = metric{ms(cpu1-cpu0) / ops, "ms"}
	layer["proc.mallocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / ops, "count"}
	layer["proc.alloc_kb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops, "KB"}
	layer["proc.gc_pause_ms_total"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	layer["proc.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	layer["machine.spin_ms.before"] = metric{rep.SpinMs[0], "ms"}
	layer["machine.spin_ms.after"] = metric{rep.SpinMs[1], "ms"}
	layer["machine.canary_ms"] = metric{rep.CanaryMs, "ms"}
	layer["bench.trace_overhead_frac"] = metric{median(traced)/median(untraced) - 1, "share"}
	rep.PerLayer = layer
	return rep, nil
}

// print writes the human table of a report.
func (rep *report) print(w *bufio.Writer) {
	mode := "end to end"
	if rep.Traced {
		mode = "traced pass (first quarter of the ops, one connection)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	fmt.Fprintf(w, "  ops planned %d  attempted %d  succeeded %d  failed %d   measured phase %.2f s   set-ups %.2f s\n",
		rep.Planned, rep.Attempted, rep.Succeeded, rep.Failed, rep.PhaseSeconds, rep.SetupSeconds)
	fmt.Fprintf(w, "  machine.spin_ms before %.1f after %.1f   machine.canary_ms %.2f (reference %.2f, times × %.3f)   %s %s nproc %d GOMAXPROCS %d\n",
		rep.SpinMs[0], rep.SpinMs[1], rep.CanaryMs, canaryRefMs, rep.Calibration, rep.Env.GoVersion, rep.Env.Kernel, rep.Env.NumCPU, rep.Env.GOMAXPROCS)
	for _, m := range endToEnd {
		if v, ok := rep.EndToEnd[m.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
	section := func(title string, vals map[string]metric) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", name, vals[name].Value, vals[name].Unit)
		}
	}
	plain := func(vals map[string]float64, unit string) map[string]metric {
		out := make(map[string]metric, len(vals))
		for name, v := range vals {
			out[name] = metric{v, unit}
		}
		return out
	}
	section("span self time, p50 (from "+rep.SpanFile+")", plain(rep.SpanSelfMs, "ms"))
	section("per layer", rep.PerLayer)
	section("notes", plain(rep.Notes, ""))
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

// resultLine is the contract's last line of standard output.
func (rep *report) resultLine() string {
	metrics := rep.EndToEnd
	if rep.Traced {
		metrics = rep.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	return string(line)
}

// appendJSON appends the report to path as one JSON line.
func appendJSON(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// options are the command's flags.
type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	all          bool
	sets, runs   int
	json, spans  string
	dir          string
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: node-scan, cluster-hot, node-write or train-fit")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the model fill, the dataset and the op sequence")
	flag.IntVar(&o.seconds, "seconds", 12, "sizes the fixed work: ops = seconds × the workload's frozen rate")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.BoolVar(&o.all, "all", false, "run all four workloads, one process each")
	flag.IntVar(&o.sets, "sets", 0, "noise self-test: this many sets of -runs runs of every workload")
	flag.IntVar(&o.runs, "runs", 10, "runs per workload and set of the noise self-test, seeds seed, seed+1, …")
	flag.StringVar(&o.json, "json", "", "append one JSON object per run to this file")
	flag.StringVar(&o.spans, "spans", "", "span file of the traced pass (default <dir>/.tmp/spans-<workload>.jsonl)")
	flag.StringVar(&o.dir, "dir", ".", "the benchmark's directory: goldens are written there, scratch files under .tmp")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "write the run's outputs as the workload's golden")
	flag.Parse()
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.all || o.sets > 0 {
		return runMany(o)
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	scratch := filepath.Join(o.dir, ".tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, traced: o.trace == 1, sc: fullScale, dir: scratch, spans: o.spans}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(scratch, "spans-"+w.name+".jsonl")
	}
	if !o.updateGolden {
		var err error
		if cfg.golden, err = loadGolden(w.name); err != nil {
			return err
		}
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	if o.json != "" {
		if err := appendJSON(o.json, rep); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	rep.print(out)
	fmt.Fprintln(out, rep.resultLine())
	if err := out.Flush(); err != nil {
		return err
	}
	if !rep.Correct {
		return errors.New("outputs are wrong or a fixed-work guard failed")
	}
	if o.updateGolden && !cfg.traced {
		return saveGolden(o.dir, rep.golden)
	}
	return nil
}

// runMany runs every workload in a process of its own (peak_rss_mb is a
// property of the process). With sets > 0 it is the noise self-test: per
// workload and end-to-end metric, the spread of each set (interquartile
// range over median) and the shift of the median between sets, next to the
// bound; any excess fails.
func runMany(o options) error {
	seed, seconds, sets, runs := o.seed, o.seconds, o.sets, o.runs
	self, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(w *workload, seed int64) (map[string]metric, error) {
		args := []string{"-dir", o.dir, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
		if o.json != "" {
			args = append(args, "-json", o.json)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
		}
		if sets == 0 {
			os.Stdout.Write(out)
		}
		return res.Metrics, nil
	}
	if sets == 0 {
		for _, w := range workloads {
			if _, err := one(w, seed); err != nil {
				return err
			}
		}
		return nil
	}

	// values[{workload, metric}][set] holds the runs of one set.
	values := make(map[[2]string][][]float64)
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			for r := 0; r < runs; r++ {
				got, err := one(w, seed+int64(r))
				if err != nil {
					return err
				}
				for _, m := range endToEnd {
					key := [2]string{w.name, m.name}
					if r == 0 {
						values[key] = append(values[key], nil)
					}
					values[key][s] = append(values[key][s], got[m.name].Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d done\n", s+1, w.name, r+1)
			}
		}
	}
	e := environment()
	fmt.Printf("noise self-test: %d sets × %d runs, seeds %d…%d, -seconds %d; nproc %d GOMAXPROCS %d %s kernel %s\n",
		sets, runs, seed, seed+int64(runs)-1, seconds, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel)
	fmt.Printf("%-12s %-12s %12s %10s %10s %7s\n", "workload", "metric", "median", "spread", "shift", "bound")
	var over int
	for _, w := range workloads {
		for _, m := range endToEnd {
			var meds []float64
			var spread float64
			for _, set := range values[[2]string{w.name, m.name}] {
				q1, med, q3 := quartiles(set)
				meds = append(meds, med)
				if iqr := (q3 - q1) / med; iqr > spread {
					spread = iqr
				}
			}
			// shift: the worst a later set's median is against an earlier one's.
			var shift float64
			for a := 0; a < len(meds); a++ {
				for b := a + 1; b < len(meds); b++ {
					d := (meds[b] - meds[a]) / meds[a]
					if m.higher {
						d = -d
					}
					if d > shift {
						shift = d
					}
				}
			}
			flag := ""
			if (spread > m.bound && m.name != "setup_s") || shift > m.bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-12s %-12s %12.4f %10.4f %10.4f %7.2f%s\n", w.name, m.name, meds[0], spread, shift, m.bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric pairs exceed their bound", over)
	}
	return nil
}
