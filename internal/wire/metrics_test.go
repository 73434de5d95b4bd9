package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketTable: the index is monotone in the duration, every duration lies
// in [lower edge, upper edge) of its bucket, a bucket is at most 1/8 wider
// than its lower edge, and the table spans at least 1 µs … 60 s.
func TestBucketTable(t *testing.T) {
	if bucketEdge(0) > time.Microsecond || bucketEdge(NumBuckets-1) < 60*time.Second {
		t.Fatalf("table spans %v … %v, want ≤ 1µs … ≥ 60s", bucketEdge(0), bucketEdge(NumBuckets-1))
	}
	for i := 1; i < NumBuckets; i++ {
		lo, hi := bucketEdge(i-1), bucketEdge(i)
		if hi <= lo || (i >= 8 && (hi-lo)*8 > lo) {
			t.Fatalf("bucket %d = [%d, %d) ns: not increasing or wider than 1/8 of its lower edge", i, lo, hi)
		}
	}
	prev := 0
	for d := time.Duration(0); d < bucketEdge(NumBuckets-1); d += d/97 + 1 {
		i := bucketOf(d)
		if i < prev {
			t.Fatalf("bucketOf(%d) = %d after %d: not monotone", d, i, prev)
		}
		if d >= bucketEdge(i) || (i > 0 && d < bucketEdge(i-1)) {
			t.Fatalf("%d ns filed in bucket %d = [%d, %d)", d, i, bucketEdge(i-1), bucketEdge(i))
		}
		prev = i
	}
	if bucketOf(-time.Second) != 0 || bucketOf(time.Hour) != NumBuckets-1 {
		t.Fatal("out-of-table durations must clamp to the first and last bucket")
	}
}

func histOf(samples []time.Duration) *Histogram {
	h := new(Histogram)
	for _, d := range samples {
		h.Observe(d)
	}
	return h
}

func sameBuckets(a, b *Histogram) bool {
	for i := range a.counts {
		if a.counts[i].Load() != b.counts[i].Load() {
			return false
		}
	}
	return true
}

// TestHistogramAddAndJSON: hist(a).Add(hist(b)) is hist(a ∪ b) bucket for
// bucket, the sparse encoding round-trips, and the decoder refuses what is
// not a bucket of the table instead of clamping it.
func TestHistogramAddAndJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(rng.ExpFloat64() * float64(3*time.Millisecond))
		}
		return out
	}
	a, b := draw(3000), draw(500)
	sum := histOf(a)
	sum.Add(histOf(b))
	if !sameBuckets(sum, histOf(append(a, b...))) {
		t.Fatal("hist(a).Add(hist(b)) differs from hist(a ∪ b)")
	}

	enc, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	back := histOf(draw(10)) // decoding replaces, it does not add
	if err := json.Unmarshal(enc, back); err != nil || !sameBuckets(sum, back) {
		t.Fatalf("round trip of %s: %v", enc, err)
	}
	if enc, _ := json.Marshal(new(Histogram)); string(enc) != "{}" {
		t.Fatalf("empty histogram encodes as %s", enc)
	}
	for _, bad := range []string{
		`{"17":1}`,            // between the edges 16 and 18
		`{"0":1}`, `{"-8":1}`, // below the table
		`{"137438953472":1}`, // 2^37: above it
		`{"16":-1}`,          // negative count
		`{"1e3":1}`, `{"16":1.5}`, `[16,1]`, `null1`,
	} {
		if err := json.Unmarshal([]byte(bad), new(Histogram)); err == nil {
			t.Errorf("decoding %s succeeded", bad)
		}
	}
}

// TestConcurrentObserve: 8 goroutines × 10 000 lock-free observations (and as
// many counter increments) sum exactly; run under -race.
func TestConcurrentObserve(t *testing.T) {
	var rs RouteStats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				rs.Count.Add(1)
				rs.Latency.Observe(time.Duration(g*10_000+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	var n int64
	for i := range rs.Latency.counts {
		n += rs.Latency.counts[i].Load()
	}
	if n != 80_000 || rs.Count.Load() != 80_000 {
		t.Fatalf("histogram holds %d observations, counter %d, want 80000", n, rs.Count.Load())
	}
}

// leaves visits every Counter and Histogram reachable from v, through nested
// structs, pointers and slices, in declaration order.
func leaves(v reflect.Value, path string, visit func(path string, leaf any)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			leaves(v.Elem(), path, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Struct:
		switch leaf := v.Addr().Interface().(type) {
		case *Counter, *Histogram:
			visit(path, leaf)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	}
}

// filledMetrics returns a document (two model blocks) whose every Counter and
// Histogram holds a value derived from base and its position, so no two
// fields of one document, and no field of two documents with different bases,
// agree. Coalesce.BatchSizes stays nil: it is a per-node list the merge
// leaves alone by contract.
func filledMetrics(base int64) *NodeMetrics {
	doc := &NodeMetrics{Models: []*ModelStats{{Name: "tcss"}, {Name: "STRNN"}}}
	n := base
	leaves(reflect.ValueOf(doc), "NodeMetrics", func(_ string, leaf any) {
		n++
		switch l := leaf.(type) {
		case *Counter:
			l.Store(n)
		case *Histogram:
			for i := int64(0); i <= n%3; i++ {
				l.Observe(time.Duration(n+i) * 50 * time.Microsecond)
			}
		}
	})
	return doc
}

// TestNodeMetricsAddIsComplete walks the document by reflection, so a Counter
// or Histogram added to it later cannot be forgotten in the merge: after
// a.Add(b) every one of them must hold a's value plus b's.
func TestNodeMetricsAddIsComplete(t *testing.T) {
	a, a0, b := filledMetrics(0), filledMetrics(0), filledMetrics(1000)
	a.Add(b)

	type leaf struct {
		path string
		v    any
	}
	collect := func(doc *NodeMetrics) (out []leaf) {
		leaves(reflect.ValueOf(doc), "NodeMetrics", func(path string, v any) { out = append(out, leaf{path, v}) })
		return out
	}
	got, before, added := collect(a), collect(a0), collect(b)
	if len(before) < 50 {
		t.Fatalf("walk found only %d counters and histograms", len(before))
	}
	for i, l := range before {
		switch was := l.v.(type) {
		case *Counter:
			if have, want := got[i].v.(*Counter).Load(), was.Load()+added[i].v.(*Counter).Load(); have != want {
				t.Errorf("%s = %d after Add, want %d", l.path, have, want)
			}
		case *Histogram:
			want := new(Histogram)
			want.Add(was)
			want.Add(added[i].v.(*Histogram))
			if !sameBuckets(got[i].v.(*Histogram), want) {
				t.Errorf("%s was not summed", l.path)
			}
		}
	}
	// A model only the other side knows is appended by name; a nil block is
	// skipped.
	extra := &NodeMetrics{Models: []*ModelStats{nil, {Name: "STAN"}}}
	extra.Models[1].Requests.Store(5)
	a.Add(extra)
	if len(a.Models) != 3 || a.Models[2].Name != "STAN" || a.Models[2].Requests.Load() != 5 {
		t.Fatalf("models after Add: %d blocks", len(a.Models))
	}

	// The shadow block merges as a weighted mean, not a sum.
	s := ShadowStats{Scored: 1, AgreementAvg: 1, ExactFrac: 1}
	s.Add(ShadowStats{Scored: 3, Errors: 2})
	if s != (ShadowStats{Scored: 4, Errors: 2, AgreementAvg: 0.25, ExactFrac: 0.25}) {
		t.Fatalf("merged shadow block %+v", s)
	}
}

// FuzzNodeMetricsDecode: the gateway decodes this document from every shard
// on every scrape. Arbitrary bytes never panic; what decodes holds no negative
// bucket, merges, and re-encodes to bytes that decode to the same document.
func FuzzNodeMetricsDecode(f *testing.F) {
	full, err := json.Marshal(filledMetrics(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	for _, seed := range []string{
		`{}`, `{"models":[null,{"name":"x","shadow":{"scored":2,"agreement_avg":0.5}}]}`,
		`{"recommend":{"count":3,"latency_buckets_ns":{"17":1}}}`,
		`{"recommend":{"latency_buckets_ns":{"16":-4}}}`,
		`{"shed_503":null}`, `{"shed_503":1.5}`, `{"shed_503":"7"}`, `{"error":"at capacity"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc NodeMetrics
		if err := json.Unmarshal(data, &doc); err != nil {
			return
		}
		leaves(reflect.ValueOf(&doc), "NodeMetrics", func(path string, leaf any) {
			if h, ok := leaf.(*Histogram); ok {
				for i := range h.counts {
					if h.counts[i].Load() < 0 {
						t.Fatalf("%s decoded a negative bucket from %s", path, data)
					}
				}
			}
		})
		var sum NodeMetrics
		sum.Add(&doc)
		sum.Add(&doc)
		if _, err := json.Marshal(&sum); err != nil {
			t.Fatalf("encoding the merge: %v", err)
		}
		first, err := json.Marshal(&doc)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		var again NodeMetrics
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		if second, _ := json.Marshal(&again); !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the document:\n%s\n%s", first, second)
		}
	})
}

// TestCounterJSON: a counter is a JSON integer in both directions and
// nothing else decodes into one.
func TestCounterJSON(t *testing.T) {
	var c Counter
	c.Add(42)
	enc, err := json.Marshal(&c)
	if err != nil || string(enc) != "42" {
		t.Fatalf("encoded as %s, %v", enc, err)
	}
	var back Counter
	if err := json.Unmarshal(enc, &back); err != nil || back.Load() != 42 {
		t.Fatalf("decoded %d, %v", back.Load(), err)
	}
	for _, bad := range []string{`1.5`, `"7"`, `null`, `{}`} {
		if err := json.Unmarshal([]byte(bad), new(Counter)); err == nil || !strings.Contains(err.Error(), "not an integer") {
			t.Errorf("decoding %s: %v", bad, err)
		}
	}
}
