package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed layer crossing. Trace is the op index all spans of one
// request share; Parent names the span that caused this one ("" for a root).
// Start and End are nanoseconds since the recorder was created.
type span struct {
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names: the boundaries the benchmark can reach from outside the program.
const (
	spanClient  = "client.request"
	spanGateway = "cluster.gateway"
	spanHandler = "serve.handler"
	spanFit     = "train.fit"
	spanEpoch   = "train.epoch"
)

// recorder keeps spans in memory until the traced pass ends. The traced pass
// has one request in flight, so the op index the client publishes in cur
// identifies the request inside the middleware without any header the
// gateway would have to forward.
type recorder struct {
	epoch time.Time
	block int // see newRecorder
	on    atomic.Bool
	cur   atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder that traces alternate blocks of block ops,
// the odd ones: the gap between the medians of traced and untraced ops is the
// tracing overhead. A block of 0 traces every op.
func newRecorder(block int) *recorder { return &recorder{epoch: time.Now(), block: block} }

// traced reports whether op i records spans.
func (r *recorder) traced(i int) bool { return r.block == 0 || (i/r.block)%2 == 1 }

func (r *recorder) add(trace int64, name, parent string, start, end time.Time) {
	s := span{Trace: trace, Name: name, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap times h as span name under parent while the recorder is on. A nil
// recorder returns h itself, so untraced runs carry no middleware at all.
func (r *recorder) wrap(name, parent string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(r.cur.Load(), name, parent, start, time.Now())
	})
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readSpans reads a span file back; the per-layer table is computed from the
// file, not from the recorder's memory.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// covered returns how much of [start, end) the intervals cover, counting
// overlapping intervals once.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	at := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// spanTimes holds, per span name, each span's duration and self time in ms.
type spanTimes struct {
	Dur  map[string][]float64
	Self map[string][]float64
}

// selfTimes computes every span's self time: its duration minus the part its
// children cover. A span's children name it as Parent, lie inside it, and
// share its trace id (a root with trace -1 adopts children of any trace).
func selfTimes(spans []span) spanTimes {
	type key struct {
		parent string
		trace  int64
	}
	byTrace := make(map[key][]int)
	byName := make(map[string][]int)
	for i, s := range spans {
		if s.Parent != "" {
			byTrace[key{s.Parent, s.Trace}] = append(byTrace[key{s.Parent, s.Trace}], i)
			byName[s.Parent] = append(byName[s.Parent], i)
		}
	}
	out := spanTimes{Dur: make(map[string][]float64), Self: make(map[string][]float64)}
	for _, s := range spans {
		children := byTrace[key{s.Name, s.Trace}]
		if s.Trace == -1 {
			children = byName[s.Name]
		}
		var ivs [][2]int64
		for _, ci := range children {
			if c := spans[ci]; c.End > s.Start && c.Start < s.End {
				ivs = append(ivs, [2]int64{c.Start, c.End})
			}
		}
		dur := s.End - s.Start
		out.Dur[s.Name] = append(out.Dur[s.Name], float64(dur)/1e6)
		out.Self[s.Name] = append(out.Self[s.Name], float64(dur-covered(s.Start, s.End, ivs))/1e6)
	}
	return out
}
